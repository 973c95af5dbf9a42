//! `analyze`: set-up runs a plain JSONL job and converts its shards to
//! `.colsh`; the timed phase reads the finished job back the three ways
//! users do: `crawler::job_resume` on the complete job (the full-decode
//! resume scan), then `analyze_shards` plus `render_tables` for every
//! table over the JSONL shards and over the `.colsh` copy, one worker
//! each. No browser or generator work runs in the timed phase.

use std::path::{Path, PathBuf};
use std::time::Instant;

use analysis::report::render_tables;
use analysis::stream::{analyze_shards, Accumulator, TableSelection, TableSet};
use crawler::{
    job_resume, job_start, AnyRecordStream, ColshWriter, DbFormat, JobManifest, JobOptions,
    JobReport, JobState, StreamMode,
};

use crate::crawl_live;
use crate::report::{self, Report, RoundSample};
use crate::stats::{median, ratio};
use crate::trace::{Passes, Tracer};
use crate::{sys, Args, WorkDir};

/// Origins in the analysed job.
pub const SIZE: u64 = 20_000;
/// Shards of the analysed job.
pub const SHARDS: usize = 4;
/// Workers for the set-up crawl and for each analysis.
pub const WORKERS: usize = 1;
/// Set-ups per run; the median is reported.
pub const SETUPS: usize = 3;
/// `render_tables`' table name and rows per ranked table (the CLI's
/// defaults).
const TABLE: &str = "all";
const TOP: usize = 10;

fn options() -> JobOptions {
    JobOptions {
        workers: WORKERS,
        ..JobOptions::default()
    }
}

/// A finished JSONL job and its `.colsh` copy.
struct Dataset {
    job: PathBuf,
    jsonl: Vec<PathBuf>,
    colsh: Vec<PathBuf>,
    report: JobReport,
}

/// Set-up: the crawl job plus the shard-by-shard `.colsh` conversion.
fn build(dir: &Path, seed: u64) -> std::io::Result<(Dataset, f64)> {
    let manifest = JobManifest::new(seed, SIZE, SHARDS, DbFormat::Jsonl);
    let job = dir.join("job");
    let copy = dir.join("colsh");
    let started = Instant::now();
    let report = job_start(&job, &manifest, &options())
        .map_err(|e| std::io::Error::other(format!("set-up job: {e}")))?;
    std::fs::create_dir_all(&copy)?;
    let jsonl = manifest.shard_files(&job);
    let mut colsh = Vec::new();
    for path in &jsonl {
        let name = path.file_name().expect("shard file name").to_string_lossy();
        let out = copy.join(name.replace("jsonl", "colsh"));
        let mut writer = ColshWriter::create(&out)?;
        for record in AnyRecordStream::open(path, StreamMode::Strict)? {
            writer.push(&record?)?;
        }
        writer.finish()?;
        colsh.push(out);
    }
    let setup_s = started.elapsed().as_secs_f64();
    let dataset = Dataset {
        job,
        jsonl,
        colsh,
        report,
    };
    Ok((dataset, setup_s))
}

/// What one read-back pass produced.
struct Pass {
    resume: JobReport,
    jsonl_report: String,
    colsh_report: String,
    jsonl_records: u64,
    colsh_records: u64,
}

/// The timed phase: resume scan, then JSONL and `.colsh` analysis.
fn read_back(data: &Dataset) -> std::io::Result<Pass> {
    let resume = job_resume(&data.job, &options())
        .map_err(|e| std::io::Error::other(format!("job_resume: {e}")))?;
    let (tables, jsonl) = analyze_shards(
        &data.jsonl,
        StreamMode::Strict,
        WORKERS,
        TableSelection::all(),
    )?;
    let jsonl_report = render_tables(&tables, TABLE, TOP);
    let (tables, colsh) = analyze_shards(
        &data.colsh,
        StreamMode::Strict,
        WORKERS,
        TableSelection::all(),
    )?;
    let colsh_report = render_tables(&tables, TABLE, TOP);
    Ok(Pass {
        resume,
        jsonl_report,
        colsh_report,
        jsonl_records: jsonl.records,
        colsh_records: colsh.records,
    })
}

/// Checks a pass: identical reports over both formats, every record
/// read, and the resume found the job complete and wrote nothing.
fn check(report: &mut Report, pass: &Pass, fingerprints_held: bool) {
    report.check(
        "analyze: JSONL report equals .colsh report",
        pass.jsonl_report == pass.colsh_report,
        SIZE,
    );
    report.gate(
        "analyze: JSONL records read",
        SIZE.abs_diff(pass.jsonl_records),
    );
    report.gate(
        "analyze: .colsh records read",
        SIZE.abs_diff(pass.colsh_records),
    );
    report.check(
        "analyze: resume reports the job complete with nothing to write",
        pass.resume.state == JobState::Complete && pass.resume.written == 0,
        SIZE,
    );
    report.check(
        "analyze: resume left every shard byte unchanged",
        fingerprints_held,
        SIZE,
    );
}

fn note_shape(report: &mut Report) {
    report.note("population", SIZE);
    report.note("shards", SHARDS);
    report.note("analysis_workers", WORKERS);
    report.note("busy_threads", 2);
}

/// Untraced: read-back passes until `--seconds` have passed.
pub fn untraced(args: &Args, work: &WorkDir) -> std::io::Result<Report> {
    let mut report = Report::new();
    note_shape(&mut report);
    let mut setups = Vec::new();
    let mut data = None;
    for i in 0..SETUPS {
        let (dataset, setup_s) = build(&work.fresh(&format!("setup-{i}"))?, args.seed)?;
        report.gate(
            "analyze: set-up job",
            crawl_live::job_failures(&dataset.report, SIZE),
        );
        setups.push(setup_s);
        if let Some(previous) = data.replace(dataset) {
            std::fs::remove_dir_all(previous.job.parent().expect("set-up dir"))?;
        }
    }
    let data = data.expect("at least one set-up");
    let fingerprints = sys::fingerprint_files(&data.jsonl)?;
    // Bytes each pass reads: the JSONL shards twice (resume scan and
    // analysis) and the `.colsh` copy once.
    let bytes = 2 * sys::file_bytes(&data.jsonl)? + sys::file_bytes(&data.colsh)?;
    report::timed_rounds(&mut report, args.seconds, median(&setups), |report| {
        let phase = sys::Phase::start()?;
        let pass = read_back(&data)?;
        let measured = phase.finish()?;
        report.attempted += SIZE;
        let held = sys::fingerprint_files(&data.jsonl)? == fingerprints;
        check(report, &pass, held);
        Ok(RoundSample {
            records: SIZE,
            bytes,
            measured,
        })
    })?;
    Ok(report)
}

/// Traced: the read-back pass re-driven record by record with a span at
/// every seam, in alternating untraced and traced passes until the
/// traced ones have taken half of `--seconds`.
pub fn traced(args: &Args, work: &WorkDir) -> std::io::Result<Report> {
    let mut report = Report::new();
    note_shape(&mut report);
    let (data, _) = build(&work.fresh("setup")?, args.seed)?;
    report.gate(
        "analyze: set-up job",
        crawl_live::job_failures(&data.report, SIZE),
    );
    report.set(
        "crawler.job_peak_writer_pending",
        data.report.peak_writer_pending as f64,
    );
    let fingerprints = sys::fingerprint_files(&data.jsonl)?;
    let half = args.seconds / 2.0;

    let reference = read_back(&data)?;
    let held = sys::fingerprint_files(&data.jsonl)? == fingerprints;
    check(&mut report, &reference, held);

    let off = Tracer::disabled();
    let tracer = Tracer::new();
    let mut scripts = ScriptCounts::default();
    let mut passes = Passes::default();
    while passes.more(half) {
        passes.untraced(|| analyze_pass(&data, &off, &mut ScriptCounts::default()))?;
        let started = tracer.now_ns();
        let pass = analyze_pass(&data, &tracer, &mut scripts)?;
        passes.absorb(&tracer, started);
        report.check(
            "traced analysis equals the untraced reports",
            pass.jsonl_report == reference.jsonl_report,
            SIZE,
        );
        // Shard bytes are compared once, after the last pass.
        check(&mut report, &pass, true);
    }
    report.check(
        "traced resume left every shard byte unchanged",
        sys::fingerprint_files(&data.jsonl)? == fingerprints,
        SIZE,
    );
    let records = SIZE * passes.count;
    report.attempted = records;
    report.set(
        "staticscan.distinct_script_share",
        // Every pass scans the dataset's scripts once per format.
        ratio(
            scripts.distinct.len() as f64,
            scripts.scanned as f64 / (2 * passes.count.max(1)) as f64,
        ),
    );
    report.note("scripts_scanned", scripts.scanned);
    report::layer_times(
        &mut report,
        &passes.totals,
        records,
        2 * passes.count,
        passes.wall_ns,
    );
    crate::live::overhead(&mut report, &passes);
    Ok(report)
}

/// Scripts the `staticscan` probe scanned, and their distinct sources.
#[derive(Default)]
struct ScriptCounts {
    scanned: u64,
    distinct: std::collections::HashSet<u64>,
}

/// One read-back pass re-driven record by record: `job_resume`, then for
/// each format every shard decoded and folded, the shards merged and
/// finished, and the tables rendered.
fn analyze_pass(
    data: &Dataset,
    tracer: &Tracer,
    scripts: &mut ScriptCounts,
) -> std::io::Result<Pass> {
    let resume = tracer
        .span("bench.rank", || {
            tracer.span("crawler.resume_scan", || job_resume(&data.job, &options()))
        })
        .map_err(|e| std::io::Error::other(format!("job_resume: {e}")))?;
    let mut rendered = Vec::new();
    let mut records = Vec::new();
    for (paths, decode) in [
        (&data.jsonl, "crawler.jsonl_decode"),
        (&data.colsh, "crawler.colsh_decode"),
    ] {
        let mut sets = Vec::new();
        let mut read = 0u64;
        for path in paths {
            let columns = TableSelection::all().columns();
            let mut stream = tracer.span("bench.rank", || {
                tracer.span(decode, || {
                    AnyRecordStream::open_projected(path, StreamMode::Strict, columns)
                })
            })?;
            let mut set = TableSet::new(TableSelection::all());
            while let Some(record) =
                tracer.span("bench.rank", || tracer.span(decode, || stream.next()))
            {
                let record = record?;
                read += 1;
                tracer.set_rank(record.rank);
                // Scanned before the fold, on the fold's thread, so the
                // probe pays every memo miss the fold would have paid and
                // the fold runs with a warm memo.
                tracer.span("staticscan.scan", || {
                    for frame in record.visit.iter().flat_map(|v| &v.frames) {
                        for script in &frame.scripts {
                            scripts.scanned += 1;
                            scripts
                                .distinct
                                .insert(sys::fingerprint(script.source.as_bytes()));
                            std::hint::black_box(staticscan::scan_script(&script.source));
                        }
                    }
                });
                tracer.span("bench.rank", || {
                    tracer.span("analysis.fold", || set.fold(&record))
                });
            }
            sets.push(set);
        }
        tracer.set_rank(0);
        let tables = tracer.span("bench.rank", || {
            tracer.span("analysis.finish", || {
                let mut merged = TableSet::new(TableSelection::all());
                for set in sets {
                    merged.merge(set);
                }
                merged.finish()
            })
        });
        let text = tracer.span("bench.rank", || {
            tracer.span("analysis.render", || render_tables(&tables, TABLE, TOP))
        });
        rendered.push(text);
        records.push(read);
    }
    let colsh_report = rendered.pop().expect("two formats");
    let jsonl_report = rendered.pop().expect("two formats");
    Ok(Pass {
        resume,
        jsonl_report,
        colsh_report,
        jsonl_records: records[0],
        colsh_records: records[1],
    })
}
