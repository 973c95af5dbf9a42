//! The `permissions-odyssey` command-line tool.
//!
//! ```text
//! permissions-odyssey crawl    --size 20000 --seed 7 --out crawl.jsonl
//! permissions-odyssey analyze  --db crawl.jsonl [--table t4]
//! permissions-odyssey lint     "camera 'none'; microphone 'none'"
//! permissions-odyssey generate --preset disable-powerful
//! permissions-odyssey matrix
//! permissions-odyssey poc
//! ```
//!
//! Every command parses its arguments against one flag table
//! ([`COMMANDS`]), which also renders the synopsis part of the usage
//! text: an unknown, repeated or valueless flag is an error, never
//! silently ignored.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crawler::{CrawlSource, DbFormat, JobManifest, ReplayBundle, ShardWriter};
use permissions_odyssey::prelude::*;
use permissions_odyssey::tools;

/// `eprintln!` that ignores write errors: a closed stderr must not stop
/// a crawl halfway (an `eprintln!` panic would).
macro_rules! note {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None => {
            note!("{}", usage());
            return ExitCode::FAILURE;
        }
        Some("help" | "--help" | "-h") => print_out(&format!("{}\n", usage())),
        Some(_) => find_command(&args).and_then(|(command, rest)| {
            let args = Args::parse(command, rest)?;
            (command.run)(&args)
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            note!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Writes `text` to stdout — the tool's only stdout path. A reader that
/// closed the pipe early (`… | head`) ends the program quietly with exit
/// 0; any other write error is an error.
fn print_out(text: &str) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    match stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush())
    {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        result => result.map_err(|e| format!("writing to stdout: {e}")),
    }
}

/// One flag a command accepts: its spec, `--name PLACEHOLDER` for a
/// flag that takes a value or a bare `--name` for a switch, and a help
/// line. The usage text prints both as they are.
type Flag = (&'static str, &'static str);

/// One command (or `crawl-job` / `bundle` sub-command).
struct Command {
    /// `crawl`, `crawl-job start`, …
    name: &'static str,
    /// Positional operand shown in the usage text; a command without
    /// one rejects positional arguments.
    operand: Option<&'static str>,
    /// The flag groups the command accepts.
    flags: &'static [&'static [Flag]],
    run: fn(&Args) -> Result<(), String>,
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// The flag called `name`, as (name, value placeholder — `None` for
    /// a switch).
    fn flag(&self, name: &str) -> Option<(&'static str, Option<&'static str>)> {
        self.flags().find_map(|(spec, _)| {
            let (flag, placeholder) = match spec.split_once(' ') {
                Some((flag, placeholder)) => (flag, Some(placeholder)),
                None => (*spec, None),
            };
            (flag == name).then_some((flag, placeholder))
        })
    }
}

// The flag tables stay one entry per line, like the usage text they
// render.
#[rustfmt::skip]
mod table {
    use super::*;

    /// The flags that determine a crawl's dataset bytes, read by
    /// [`job_manifest`] for `crawl` and `crawl-job start` alike. A
    /// bundle store fixes them all: `crawl --replay` refuses them.
    pub(super) const DATASET: &[Flag] = &[
        ("--size N", "origins to crawl, ranks 1..=N (default 20000)"),
        ("--seed S", "population seed (default 7)"),
        ("--retries R", "per-visit transient-failure retries (default 2)"),
        ("--adversarial", "enable hostile origins"),
        ("--fault-panics PM", "injected visit panics per mille (default 0)"),
        ("--fault-transients PM", "injected transient failures per mille (default 0)"),
    ];
    /// How the dataset is laid out on disk.
    const LAYOUT: &[Flag] = &[
        ("--shards N", "rank-striped shard files (default 1)"),
        ("--format jsonl|columnar", "database format (crawl: default from --out)"),
    ];
    const CRAWL: &[Flag] = &[
        ("--out FILE", "database file or shard base (default crawl.jsonl)"),
        ("--workers W", "parallel visit workers (default 8)"),
        ("--record DIR", "also record every exchange into a bundle store"),
        ("--replay DIR", "re-drive a recorded store; it fixes the dataset flags"),
    ];
    const JOB_DIR: &[Flag] = &[("--dir DIR", "the job directory (required)")];
    const JOB_RECORD: &[Flag] = &[("--record", "record a bundle store at DIR/bundle")];
    /// Run-time knobs of a job run; none of them changes the dataset bytes.
    const JOB_RUN: &[Flag] = &[
        ("--workers W", "parallel visit workers (default 8)"),
        ("--lease N", "ranks per lease batch (default 256)"),
        ("--stop-file FILE", "stop gracefully once FILE exists"),
        ("--status-every N", "records between status.json rewrites (default 1000)"),
        ("--max-rss-mb M", "fail if peak RSS exceeds M MiB"),
        ("--chaos-abort N", "test hook: abort unflushed after N records"),
    ];
    const TABLES: &[Flag] = &[
        ("--table NAME", "table to render (default all; see TABLES)"),
        ("--top N", "rows per ranked table (default 10)"),
        ("--follow", "keep folding appended records until the job ends"),
        ("--interval-ms MS", "--follow poll interval (default 500)"),
    ];
    const ANALYZE: &[Flag] = &[
        ("--db FILE|DIR|GLOB", "database file, shard or job directory (required)"),
        ("--lenient", "skip and count corrupt records instead of failing"),
        ("--workers W", "shards folded in parallel (default: up to 8)"),
    ];
    const CONVERT: &[Flag] = &[
        ("--in FILE", "source database, either format (required)"),
        ("--out FILE", "target database (required)"),
        ("--format jsonl|columnar", "target format (default from --out)"),
        ("--group N", ".colsh records per row group (default 1024)"),
        ("--dict-epoch N", ".colsh dictionary epoch in row groups (0 = none)"),
    ];
    const BUNDLE_STAT: &[Flag] = &[
        ("--dir DIR", "the store directory, instead of the DIR operand"),
        ("--lenient", "skip and count corrupt store records"),
    ];
    const GENERATE: &[Flag] = &[("--preset NAME", "disable-powerful (default) or disable-all")];

    const fn command(
        name: &'static str, operand: Option<&'static str>,
        flags: &'static [&'static [Flag]], run: fn(&Args) -> Result<(), String>,
    ) -> Command {
        Command { name, operand, flags, run }
    }

    /// Every command, in usage order: name, positional operand, flag
    /// groups, and the function that runs it.
    pub(super) const COMMANDS: &[Command] = &[
        command("crawl", None, &[CRAWL, DATASET, LAYOUT], cmd_crawl),
        command("crawl-job start", None, &[JOB_DIR, DATASET, LAYOUT, JOB_RECORD, JOB_RUN], cmd_job_start),
        command("crawl-job resume", None, &[JOB_DIR, JOB_RUN], cmd_job_resume),
        command("crawl-job status", None, &[JOB_DIR], cmd_job_status),
        command("crawl-job analyze", None, &[JOB_DIR, TABLES], cmd_job_analyze),
        command("bundle stat", Some("DIR"), &[BUNDLE_STAT], cmd_bundle_stat),
        command("analyze", None, &[ANALYZE, TABLES], cmd_analyze),
        command("convert", None, &[CONVERT], cmd_convert),
        command("lint", Some("<Permissions-Policy header value>"), &[], cmd_lint),
        command("generate", None, &[GENERATE], cmd_generate),
        command("matrix", None, &[], cmd_matrix),
        command("poc", None, &[], cmd_poc),
    ];
}
use table::COMMANDS;

/// Finds the command `args` names and the arguments after it. Verbs are
/// resolved before any flag is looked at.
fn find_command(args: &[String]) -> Result<(&'static Command, &[String]), String> {
    let verb = args[0].as_str();
    let named = |name: &str| COMMANDS.iter().find(|c| c.name == name);
    if let Some(command) = args.get(1).and_then(|sub| named(&format!("{verb} {sub}"))) {
        return Ok((command, &args[2..]));
    }
    if let Some(command) = named(verb) {
        return Ok((command, &args[1..]));
    }
    let subs: Vec<&str> = COMMANDS
        .iter()
        .filter_map(|c| c.name.strip_prefix(verb)?.strip_prefix(' '))
        .collect();
    match args.get(1) {
        _ if subs.is_empty() => Err(format!(
            "unknown command `{verb}` (run `permissions-odyssey help` for usage)"
        )),
        None => Err(format!("{verb} requires a verb: {}", subs.join("|"))),
        Some(sub) => Err(format!("unknown {verb} verb `{sub}` ({})", subs.join("|"))),
    }
}

/// A command line parsed against its command's flag table.
struct Args {
    command: &'static Command,
    /// The flags given, with their values (`None` for switches).
    flags: BTreeMap<&'static str, Option<String>>,
    /// Positional operands, in order.
    operands: Vec<String>,
}

impl Args {
    /// Parses `args`, rejecting an unknown flag, a repeated flag, a value
    /// flag without a value (at the end, or followed by another flag),
    /// and a positional argument the command takes none of.
    fn parse(command: &'static Command, args: &[String]) -> Result<Args, String> {
        let name = command.name;
        let (mut flags, mut operands) = (BTreeMap::new(), Vec::new());
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                if command.operand.is_none() {
                    return Err(format!("{name}: unexpected argument `{arg}`"));
                }
                operands.push(arg.clone());
                continue;
            }
            let Some((flag, placeholder)) = command.flag(arg) else {
                return Err(format!(
                    "{name}: unknown flag {arg} (run `permissions-odyssey help` for usage)"
                ));
            };
            let value = match placeholder {
                None => None,
                Some(placeholder) => match rest.next() {
                    Some(value) if !value.starts_with("--") => Some(value.clone()),
                    _ => return Err(format!("{name}: {arg} needs a value ({placeholder})")),
                },
            };
            if flags.insert(flag, value).is_some() {
                return Err(format!("{name}: {arg} given more than once"));
            }
        }
        Ok(Args {
            command,
            flags,
            operands,
        })
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(Option::as_deref)
    }

    fn switch(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        let missing = || format!("{} requires {name}", self.command.name);
        self.value(name).ok_or_else(missing)
    }

    /// The parsed value of `name`, if given.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let invalid =
            |value: &str| format!("{}: invalid value for {name}: {value}", self.command.name);
        let parse = |value: &str| value.parse().map_err(|_| invalid(value));
        self.value(name).map(parse).transpose()
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }
}

/// The usage text: a synopsis rendered from [`COMMANDS`], then prose.
fn usage() -> String {
    let mut text =
        "permissions-odyssey — browser permission ecosystem measurement\n\nUSAGE:\n".to_string();
    for command in COMMANDS {
        let operand = command.operand.map(|o| format!(" {o}")).unwrap_or_default();
        text.push_str(&format!(
            "  permissions-odyssey {}{operand}\n",
            command.name
        ));
        for (spec, help) in command.flags() {
            text.push_str(&format!("      {spec:<24} {help}\n"));
        }
    }
    text + "  permissions-odyssey help\n\n" + USAGE_PROSE
}

const USAGE_PROSE: &str = "\
FORMATS: databases are JSONL (interchange) or columnar `.colsh` (fast
  selective analysis). `analyze` sniffs each shard's format; `crawl` and
  `convert` take the format from the output extension unless --format
  is given, and a --format that contradicts a .jsonl or .colsh
  extension is an error.

TABLES (analyze --table): funnel census completeness t3 t4 t5 t6 summary
  t7 t8 directives f2 t9 misconfig t10 groups exposure all (default)

JOBS: `crawl-job` runs a crawl as a resumable job — a directory holding
  a checksummed manifest, rank-striped shards, and a live status.json.
  Kill it at any point and `crawl-job resume` reproduces the
  uninterrupted dataset byte for byte; touch the --stop-file for a
  graceful checkpointed shutdown (exit 0). `crawl` runs the same pool
  and writes the same shard files, but keeps no job directory and
  cannot be resumed: use `crawl-job` for anything that may be stopped.

BUNDLES: `crawl --record DIR` captures every network exchange of the
  crawl into a content-addressed bundle store (bodies and header
  templates deduplicated by digest); `crawl --replay DIR` re-drives the
  identical crawl from the store — byte-identical dataset, generator
  never invoked, an error where it cannot — and refuses the dataset
  flags the store fixes. `crawl-job start --record`
  does the same for resumable jobs (store at DIR/bundle, kill/resume
  safe); `bundle stat` prints store accounting and the dedup ratio.

LIVE ANALYSIS: `crawl-job analyze` folds the analysis tables over a
  job's shards up to a consistent frontier (last complete line / row
  group) without racing the writer — run it while the job crawls. With
  --follow it keeps re-folding only the appended delta until the job
  finishes, writing each snapshot under DIR/tables/. `analyze --follow
  --db DIR` is the same thing spelled from the analyze side.";

/// Parses a `--format` value.
fn parse_format(value: &str) -> Result<DbFormat, String> {
    match value {
        "jsonl" => Ok(DbFormat::Jsonl),
        "columnar" | "colsh" => Ok(DbFormat::Colsh),
        other => Err(format!("unknown format `{other}` (jsonl|columnar)")),
    }
}

/// The database format a command writes: `--format` if given, else the
/// extension of `out` (`.colsh` → columnar, anything else → JSONL). A
/// `--format` that contradicts a `.jsonl` or `.colsh` extension is an
/// error.
fn output_format(args: &Args, out: Option<&Path>) -> Result<DbFormat, String> {
    let flag = args.value("--format").map(parse_format).transpose()?;
    let formats = [DbFormat::Jsonl, DbFormat::Colsh].into_iter();
    let by_extension = out
        .and_then(Path::extension)
        .and_then(|ext| formats.clone().find(|f| ext == f.extension()));
    match (flag, by_extension, out) {
        (Some(flag), Some(ext), Some(out)) if flag != ext => Err(format!(
            "{}: --format contradicts the extension of {}",
            args.command.name,
            out.display()
        )),
        (flag, ext, _) => Ok(flag.or(ext).unwrap_or(DbFormat::Jsonl)),
    }
}

/// The `DATASET` and `LAYOUT` flags as a job manifest: `crawl` and
/// `crawl-job start` build the same crawl from the same flags.
fn job_manifest(args: &Args, format: DbFormat) -> Result<JobManifest, String> {
    let size: u64 = args.num("--size", 20_000)?;
    let shards: usize = args.num("--shards", 1)?;
    if shards == 0 || size == 0 {
        return Err("--shards and --size must be at least 1".to_string());
    }
    let mut manifest = JobManifest::new(args.num("--seed", 7)?, size, shards, format);
    manifest.adversarial = args.switch("--adversarial");
    manifest.max_retries = args.num("--retries", manifest.max_retries)?;
    manifest.fault_panics_per_mille = args.num("--fault-panics", 0)?;
    manifest.fault_transients_per_mille = args.num("--fault-transients", 0)?;
    Ok(manifest)
}

fn cmd_crawl(args: &Args) -> Result<(), String> {
    let out_flag = args.value("--out").map(PathBuf::from);
    let format = output_format(args, out_flag.as_deref())?;
    let out = out_flag.unwrap_or_else(|| format!("crawl.{}", format.extension()).into());
    let record = args.value("--record").map(Path::new);
    // A replay takes every dataset-determining parameter from the
    // bundle store's metadata, and never invokes the generator.
    let replay = args.value("--replay");
    if replay.is_some() {
        if record.is_some() {
            return Err("--record and --replay are mutually exclusive".to_string());
        }
        for (spec, _) in table::DATASET {
            let flag = spec.split_once(' ').map_or(*spec, |(flag, _)| flag);
            if args.switch(flag) {
                return Err(format!("crawl: {flag} cannot be combined with --replay"));
            }
        }
    }
    // Without --replay the manifest is the crawl; with it, the layout.
    let manifest = job_manifest(args, format)?;
    let shard_files = crawler::shard_paths(&out, manifest.shards);
    // A shard written over one of the store's files would destroy the
    // recording, or the packs the replay reads; refuse it before any
    // file is created.
    if let Some(store) = record.or(replay.map(Path::new)) {
        let store_files = crawler::BUNDLE_STORE_FILES.map(|file| store.join(file));
        for shard in &shard_files {
            if let Some(file) = store_files.iter().find(|file| same_file(shard, file)) {
                return Err(format!(
                    "crawl: --out {} would overwrite the bundle store file {}",
                    shard.display(),
                    file.display()
                ));
            }
        }
    }
    let bundle = replay.map(|dir| ReplayBundle::load(Path::new(dir)));
    let bundle = bundle.transpose().map_err(|e| e.to_string())?;
    let (source, doing) = match &bundle {
        Some(bundle) => (CrawlSource::Replay(bundle), "replaying"),
        None => (CrawlSource::Live(&manifest, record), "crawling"),
    };
    let size = bundle.as_ref().map_or(manifest.size, ReplayBundle::sites);
    let (seed, panics) = match bundle.as_ref().map(ReplayBundle::meta) {
        Some(meta) => (meta.seed, meta.fault_panics_per_mille),
        None => (manifest.seed, manifest.fault_panics_per_mille),
    };
    if manifest.adversarial {
        note!("adversarial-site mode: hostile origins enabled");
    }
    // Injected panics — live-injected or replayed from tape — are caught
    // and classified by the crawler; don't print a backtrace for each.
    // (Without fault injection real bugs still report loudly.)
    if panics > 0 {
        quiet_injected_panics();
    }
    let defaults = crawler::JobOptions::default();
    let workers = args.num("--workers", defaults.workers)?;
    note!("{doing} {size} origins (seed {seed}, {workers} workers)…");
    // Records reach disk as their visits end, in rank order (the paper's
    // per-site persistence, Appendix A.2 C14); progress every tenth.
    let status_every = (size / 10).max(1);
    let opts = crawler::JobOptions {
        workers,
        status_every,
        progress: true,
        ..defaults
    };
    let report =
        crawler::crawl_shards(source, &shard_files, format, &opts).map_err(|e| e.to_string())?;
    note!("{}", report.render());
    if let Some(dir) = record {
        let sites = report.written;
        note!("bundle store recorded to {} ({sites} sites)", dir.display());
    }
    match shard_files.as_slice() {
        [first, .., last] => note!(
            "database written to {} shards: {} … {}",
            shard_files.len(),
            first.display(),
            last.display()
        ),
        _ => note!("database written to {}", out.display()),
    }
    if let Some(peak) = peak_rss_mb() {
        note!("peak rss: {peak} MiB");
    }
    Ok(())
}

/// Silences the default panic hook while injected visit faults are
/// active — the crawler catches and classifies those panics on purpose,
/// and a backtrace per simulated crash would drown the progress output.
/// The hook ignores write errors: a panic inside a panic hook aborts.
fn quiet_injected_panics() {
    std::panic::set_hook(Box::new(|info| {
        let detail = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("visit panicked");
        note!("caught: {detail}");
    }));
}

/// Peak resident set size of this process in MiB, from Linux's
/// `VmHWM` accounting. `None` where procfs is unavailable.
fn peak_rss_mb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024)
}

fn cmd_job_start(args: &Args) -> Result<(), String> {
    let mut manifest = job_manifest(args, output_format(args, None)?)?;
    manifest.record_bundle = args.switch("--record");
    run_job(args, Some(manifest))
}

fn cmd_job_resume(args: &Args) -> Result<(), String> {
    run_job(args, None)
}

/// Starts a job from `manifest`, or resumes the one in `--dir` when
/// there is none; then renders the report and enforces `--max-rss-mb`.
fn run_job(args: &Args, manifest: Option<JobManifest>) -> Result<(), String> {
    let dir = PathBuf::from(args.required("--dir")?);
    let start = manifest.is_some();
    let manifest = match manifest {
        Some(manifest) => manifest,
        None => JobManifest::load(&dir).map_err(|e| e.to_string())?,
    };
    if manifest.fault_panics_per_mille > 0 {
        quiet_injected_panics();
    }
    let defaults = crawler::JobOptions::default();
    let opts = crawler::JobOptions {
        workers: args.num("--workers", defaults.workers)?,
        lease_records: args.num("--lease", defaults.lease_records)?,
        status_every: args.num("--status-every", defaults.status_every)?,
        stop_file: args.value("--stop-file").map(PathBuf::from),
        abort_after_records: args.parsed("--chaos-abort")?,
        progress: true,
        ..defaults
    };
    note!(
        "{} job in {}: {} origins, {} shard(s), {} worker(s)…",
        if start { "starting" } else { "resuming" },
        dir.display(),
        manifest.size,
        manifest.shards,
        opts.workers
    );
    let report = if start {
        crawler::job_start(&dir, &manifest, &opts)
    } else {
        crawler::job_resume(&dir, &opts)
    }
    .map_err(|e| e.to_string())?;
    note!("{}", report.render());
    if let Some(peak) = peak_rss_mb() {
        note!("peak rss: {peak} MiB");
        let cap: u64 = args.num("--max-rss-mb", 0)?;
        if cap > 0 && peak > cap {
            return Err(format!(
                "peak rss {peak} MiB exceeded the --max-rss-mb {cap} ceiling"
            ));
        }
    }
    if report.state == crawler::JobState::Stopped {
        note!(
            "stopped gracefully; continue with: permissions-odyssey crawl-job resume --dir {}",
            dir.display()
        );
    }
    Ok(())
}

fn cmd_job_status(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(args.required("--dir")?);
    let status = crawler::read_status(&dir)
        .map_err(|e| format!("no readable status for the job in {}: {e}", dir.display()))?;
    print_out(&format!(
        "state:     {}\nprogress:  {}/{} written this run \
         ({} resumed, {} remaining)\nrate:      {:.0} records/sec, eta {:.0}s\n\
         queues:    {} leases pending, writer buffer {} (peak {})\n\
         leases:    {} retried, {} quarantined\n\
         visits:    {} retries, {} panics caught, {} degraded\n",
        status.state,
        status.written,
        status.planned,
        status.resumed_from,
        status.remaining,
        status.rate_per_sec,
        status.eta_secs.min(86_400_000.0),
        status.lease_queue_depth,
        status.writer_pending,
        status.writer_peak_pending,
        status.leases_retried,
        status.leases_quarantined,
        status.retries,
        status.panics_caught,
        status.degraded_visits,
    ))
}

fn cmd_job_analyze(args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(args.required("--dir")?);
    let table = args.value("--table").unwrap_or("all");
    let top: usize = args.num("--top", 10)?;
    let interval_ms: u64 = args.num("--interval-ms", 500)?;
    run_live_analyze(&dir, table, top, args.switch("--follow"), interval_ms)
}

/// `bundle stat DIR`: accounting for a record/replay bundle store —
/// site/attempt/exchange counts, blob dedup, and on-disk size.
fn cmd_bundle_stat(args: &Args) -> Result<(), String> {
    let dirs: Vec<&str> = args
        .operands
        .iter()
        .map(String::as_str)
        .chain(args.value("--dir"))
        .collect();
    let [dir] = dirs.as_slice() else {
        return Err("bundle stat requires one store directory (DIR or --dir DIR)".to_string());
    };
    let dir = Path::new(dir);
    if !crawler::is_bundle_store(dir) {
        return Err(format!("{} is not a bundle store", dir.display()));
    }
    let mode = if args.switch("--lenient") {
        crawler::StreamMode::Lenient
    } else {
        crawler::StreamMode::Strict
    };
    let stat = crawler::BundleStat::scan(dir, mode).map_err(|e| e.to_string())?;
    print_out(&format!(
        "sites:       {} ({} synthesized)\n\
         attempts:    {}\n\
         exchanges:   {}\n\
         blobs:       {} unique, {} bytes stored\n\
         referenced:  {} bytes before dedup\n\
         dedup ratio: {:.2}\n\
         store size:  {} bytes on disk\n",
        stat.sites,
        stat.synthesized,
        stat.attempts,
        stat.exchanges,
        stat.unique_blobs,
        stat.stored_bytes,
        stat.referenced_bytes,
        stat.dedup_ratio(),
        stat.store_file_bytes,
    ))?;
    if stat.blob_skips.skipped > 0 || stat.manifest_skips.skipped > 0 {
        note!(
            "lenient: skipped {} blob record(s), {} manifest record(s)",
            stat.blob_skips.skipped,
            stat.manifest_skips.skipped
        );
    }
    Ok(())
}

/// Resolves `--table`, naming the valid tables on a typo.
fn table_selection(table: &str) -> Result<analysis::stream::TableSelection, String> {
    analysis::stream::TableSelection::named(table).ok_or_else(|| {
        format!("unknown table `{table}` (see TABLES in `permissions-odyssey help`)")
    })
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let db = args.required("--db")?;
    let table = args.value("--table").unwrap_or("all");
    let top: usize = args.num("--top", 10)?;

    // `--follow` reads --db as a job directory and hands off to the
    // live frontier loop (the same thing as `crawl-job analyze`).
    if args.switch("--follow") {
        let interval_ms: u64 = args.num("--interval-ms", 500)?;
        return run_live_analyze(Path::new(db), table, top, true, interval_ms);
    }

    // One streaming pass per shard: the selected tables fold record by
    // record, so peak memory never depends on the dataset size.
    let paths = crawler::expand_db_paths(db).map_err(|e| format!("resolving {db}: {e}"))?;
    let workers: usize = args.num("--workers", paths.len().min(8))?;
    let selection = table_selection(table)?;
    let mode = if args.switch("--lenient") {
        crawler::StreamMode::Lenient
    } else {
        crawler::StreamMode::Strict
    };
    let started = std::time::Instant::now();
    let (tables, telemetry) = analysis::stream::analyze_shards(&paths, mode, workers, selection)
        .map_err(|e| format!("reading {e}"))?;
    for (path, skip) in &telemetry.skipped {
        if skip.skipped > 0 {
            note!(
                "lenient: skipped {} corrupt line(s) in {} ({})",
                skip.skipped,
                path.display(),
                skip.describe()
            );
        }
        if skip.torn_tail {
            note!(
                "lenient: {} ends mid-record (torn live tail, treated as end of data)",
                path.display()
            );
        }
    }
    note!(
        "analyzed {} records from {} shard(s) in {:.1}s ({} worker(s))",
        telemetry.records,
        telemetry.shards,
        started.elapsed().as_secs_f64(),
        workers.clamp(1, telemetry.shards.max(1)),
    );
    print_out(&analysis::report::render_tables(&tables, table, top))
}

/// The live analysis loop behind `crawl-job analyze` and
/// `analyze --follow`: folds the selected tables over a job's shards up
/// to a consistent frontier, then (with `follow`) keeps re-folding only
/// the appended delta until the job reaches a terminal state or the
/// frontier covers the whole population.
///
/// Every snapshot is written under `DIR/tables/`:
/// `frontier-<records>/tables.txt` plus a `frontier.json` tag, and
/// `tables/latest.txt` (atomically replaced) always holds the newest
/// snapshot — byte-identical to what a batch `analyze` at the same
/// frontier prints, which is what the ci.sh gate `diff`s.
fn run_live_analyze(
    dir: &Path,
    table: &str,
    top: usize,
    follow: bool,
    interval_ms: u64,
) -> Result<(), String> {
    // With --follow the job may not have written its manifest yet —
    // wait a bounded while for it instead of racing the starter.
    let manifest = {
        let mut attempt = 0;
        loop {
            match JobManifest::load(dir) {
                Ok(manifest) => break manifest,
                Err(_) if follow && attempt < 100 => {
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                Err(e) => return Err(e.to_string()),
            }
        }
    };
    let selection = table_selection(table)?;
    let shard_files = manifest.shard_files(dir);
    let mut live = analysis::stream::LiveAnalysis::new(&shard_files, manifest.format, selection);
    let tables_dir = dir.join("tables");
    std::fs::create_dir_all(&tables_dir)
        .map_err(|e| format!("creating {}: {e}", tables_dir.display()))?;
    let started = std::time::Instant::now();
    let mut last_records: Option<u64> = None;
    loop {
        // Read the job state *before* folding: a frontier taken after a
        // terminal status is durable covers everything the job wrote,
        // so this tick's snapshot is the final one.
        let state = crawler::read_status(dir)
            .map(|s| s.state)
            .unwrap_or_else(|_| "unknown".to_string());
        let terminal = matches!(state.as_str(), "complete" | "stopped" | "failed");
        let frontier = live
            .tick()
            .map_err(|e| format!("following {}: {e}", dir.display()))?;
        let records = frontier.records();
        if last_records != Some(records) {
            last_records = Some(records);
            let tables = live.snapshot();
            let rendered = analysis::report::render_tables(&tables, table, top);
            write_snapshot(&tables_dir, &frontier, &rendered, table, top)
                .map_err(|e| format!("writing snapshot under {}: {e}", tables_dir.display()))?;
            note!(
                "[{:7.1}s] frontier: {} records, {} bytes, job {}",
                started.elapsed().as_secs_f64(),
                records,
                frontier.bytes(),
                state
            );
            if !follow {
                return print_out(&rendered);
            }
        }
        if !follow || terminal || records >= manifest.size {
            note!(
                "final frontier: {} of {} records ({})",
                records,
                manifest.size,
                state
            );
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// Persists one live snapshot: a per-frontier directory with the
/// rendered tables and a frontier tag, plus `latest.txt` swapped in via
/// a temp file + rename so concurrent readers never see a torn file.
fn write_snapshot(
    tables_dir: &Path,
    frontier: &analysis::stream::JobFrontier,
    rendered: &str,
    table: &str,
    top: usize,
) -> std::io::Result<()> {
    let snap_dir = tables_dir.join(format!("frontier-{:09}", frontier.records()));
    std::fs::create_dir_all(&snap_dir)?;
    std::fs::write(snap_dir.join("tables.txt"), rendered)?;
    // The frontier tag lives next to the tables, not in them, so
    // `tables.txt` / `latest.txt` stay byte-comparable to batch output.
    let mut tag = String::new();
    tag.push_str("{\n");
    tag.push_str(&format!("  \"records\": {},\n", frontier.records()));
    tag.push_str(&format!("  \"bytes\": {},\n", frontier.bytes()));
    tag.push_str(&format!("  \"table\": \"{table}\",\n"));
    tag.push_str(&format!("  \"top\": {top},\n"));
    tag.push_str("  \"shards\": [\n");
    for (i, shard) in frontier.shards.iter().enumerate() {
        let comma = if i + 1 == frontier.shards.len() {
            ""
        } else {
            ","
        };
        tag.push_str(&format!(
            "    {{ \"records\": {}, \"bytes\": {} }}{comma}\n",
            shard.records, shard.bytes
        ));
    }
    tag.push_str("  ]\n}\n");
    std::fs::write(snap_dir.join("frontier.json"), tag)?;
    let tmp = tables_dir.join("latest.txt.tmp");
    std::fs::write(&tmp, rendered)?;
    std::fs::rename(&tmp, tables_dir.join("latest.txt"))
}

/// `convert --in FILE --out FILE [--format jsonl|columnar]`: re-encodes
/// one database file between the interchange (JSONL) and analysis
/// (columnar) formats, streaming record by record. The source format is
/// sniffed; the target format follows `--format` or the output
/// extension. A JSONL → columnar → JSONL round trip is byte-identical
/// (the ci.sh gate `cmp`s it).
fn cmd_convert(args: &Args) -> Result<(), String> {
    let input = PathBuf::from(args.required("--in")?);
    let out = PathBuf::from(args.required("--out")?);
    let format = output_format(args, Some(&out))?;
    // A directory mixing a bundle store with record shards is refused
    // loudly rather than silently re-encoding only the shard half.
    crawler::refuse_mixed_bundle_dir(&input).map_err(|e| e.to_string())?;
    // Creating the output truncates it, so an output that is the input
    // would be emptied before its first record is read.
    if same_file(&input, &out) {
        return Err(format!(
            "convert: --out {} is the --in file; write to a new file",
            out.display()
        ));
    }
    let group: usize = args.num("--group", crawler::DEFAULT_GROUP_RECORDS)?;
    if group == 0 {
        return Err("--group must be at least 1".to_string());
    }
    let epoch: u64 = args.num("--dict-epoch", crawler::DEFAULT_DICT_EPOCH_GROUPS)?;
    let stream = crawler::AnyRecordStream::open(&input, crawler::StreamMode::Strict)
        .map_err(|e| format!("opening {}: {e}", input.display()))?;
    let mut sink = ShardWriter::create(std::slice::from_ref(&out), format)
        .map_err(|e| e.to_string())?
        .with_colsh_layout(group, epoch);
    let mut records = 0u64;
    for record in stream {
        let record = record.map_err(|e| format!("reading {}: {e}", input.display()))?;
        sink.push(&record).map_err(|e| e.to_string())?;
        records += 1;
    }
    sink.finish().map_err(|e| e.to_string())?;
    note!(
        "converted {records} records: {} -> {}",
        input.display(),
        out.display()
    );
    Ok(())
}

/// Whether `a` and `b` name one file. Two existing files are one when
/// they share a device and inode on Unix (so a hard link is its target),
/// elsewhere when their canonical paths match. Otherwise both paths are
/// resolved as far as they exist (see [`resolved`]) and compared.
fn same_file(a: &Path, b: &Path) -> bool {
    #[cfg(unix)]
    if let (Ok(a), Ok(b)) = (std::fs::metadata(a), std::fs::metadata(b)) {
        use std::os::unix::fs::MetadataExt;
        return (a.dev(), a.ino()) == (b.dev(), b.ino());
    }
    resolved(a) == resolved(b)
}

/// `path` with `.`, `..` and symlinks resolved in its longest existing
/// prefix, and the components after that prefix appended as written.
fn resolved(path: &Path) -> PathBuf {
    if let Ok(real) = std::fs::canonicalize(path) {
        return real;
    }
    match (path.parent(), path.file_name()) {
        (Some(parent), Some(name)) if parent.as_os_str().is_empty() => {
            resolved(Path::new(".")).join(name)
        }
        (Some(parent), Some(name)) => resolved(parent).join(name),
        _ => path.to_path_buf(),
    }
}

fn cmd_lint(args: &Args) -> Result<(), String> {
    let header = args.operands.join(" ");
    if header.trim().is_empty() {
        return Err("lint requires a header value".to_string());
    }
    let findings = tools::linter::lint(&header);
    if findings.is_empty() {
        return print_out("✓ header is well-formed\n");
    }
    let mut text = String::new();
    for finding in findings {
        text.push_str(&format!(
            "✗ {}\n  fix: {}\n",
            finding.problem, finding.suggestion
        ));
    }
    print_out(&text)
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let preset = match args.value("--preset") {
        None | Some("disable-powerful") => tools::generator::Preset::DisablePowerful,
        Some("disable-all") => tools::generator::Preset::DisableAll,
        Some(other) => return Err(format!("unknown preset `{other}`")),
    };
    print_out(&format!(
        "Permissions-Policy: {}\nFeature-Policy:     {}\n",
        tools::generator::permissions_policy_value(&preset),
        tools::generator::feature_policy_value(&preset)
    ))
}

fn cmd_matrix(_: &Args) -> Result<(), String> {
    print_out(&tools::support_matrix::render())
}

fn cmd_poc(_: &Args) -> Result<(), String> {
    print_out(&format!(
        "{}\n{}\n",
        tools::poc::render_delegation_matrix(),
        tools::poc::render_local_scheme_issue()
    ))
}
