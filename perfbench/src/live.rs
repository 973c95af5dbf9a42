//! The `crawl-live` runs.

use crawler::Crawler;

use crate::crawl_live::{self, SIZE};
use crate::report::{self, Report, RoundSample};
use crate::stack::{self, ProbeCounts, SeamCounts};
use crate::stats::{per_record, percentile, ratio, tail_percentile};
use crate::trace::{Passes, Tracer};
use crate::{Args, WorkDir};

/// p99.9 in parts per ten thousand.
const P999: u64 = 9_990;

/// Untraced: whole jobs back to back until `--seconds` have passed.
pub fn untraced(args: &Args, work: &WorkDir) -> std::io::Result<Report> {
    let mut report = Report::new();
    note_shape(&mut report);
    let setup_s = crawl_live::setup_seconds(args.seed);
    report::timed_rounds(&mut report, args.seconds, setup_s, |report| {
        let dir = work.fresh("job")?;
        let round = crawl_live::round(&dir, args.seed)?;
        report.attempted += SIZE;
        report.gate(
            "crawl-live: ranks once, in stripe order, none quarantined or panicked",
            round.failed,
        );
        std::fs::remove_dir_all(&dir)?;
        Ok(RoundSample {
            records: round.report.written,
            bytes: round.bytes,
            measured: round.measured,
        })
    })?;
    Ok(report)
}

fn note_shape(report: &mut Report) {
    report.note("population", SIZE);
    report.note("shards", crawl_live::SHARDS);
    report.note("visit_workers", crawl_live::WORKERS);
    report.note("busy_threads", crawl_live::WORKERS + 1);
}

/// Traced: one job for its writer counters, then the composed stack over
/// every rank in alternating untraced and traced passes until the traced
/// ones have taken half of `--seconds`.
pub fn traced(args: &Args, work: &WorkDir) -> std::io::Result<Report> {
    let mut report = Report::new();
    note_shape(&mut report);
    let dir = work.fresh("job")?;
    let round = crawl_live::round(&dir, args.seed)?;
    report.gate("crawl-live job gate", round.failed);
    report.set(
        "crawler.job_peak_writer_pending",
        round.report.peak_writer_pending as f64,
    );
    std::fs::remove_dir_all(&dir)?;

    let manifest = crawl_live::manifest(args.seed);
    let live = LivePass {
        population: manifest.population(),
        config: manifest.crawl_config(crawl_live::WORKERS),
        crawler: Crawler::new(manifest.crawl_config(crawl_live::WORKERS)),
    };
    let half = args.seconds / 2.0;
    let off = Tracer::disabled();
    let tracer = Tracer::new();
    let counts = SeamCounts::default();
    let mut probes = ProbeCounts::default();
    let mut passes = Passes::default();
    let mut mismatches = 0u64;
    while passes.more(half) {
        mismatches +=
            passes.untraced(|| live.run(&off, &SeamCounts::default(), &mut ProbeCounts::default()));
        let started = tracer.now_ns();
        mismatches += live.run(&tracer, &counts, &mut probes);
        passes.absorb(&tracer, started);
    }
    let records = SIZE * passes.count;
    report.attempted = records;
    report.gate("traced visit equals Crawler::visit_one", mismatches);
    report.gate("composed visits panicked", counts.panics.get());
    visit_layers(&mut report, &passes, &counts, &probes, records)?;
    report::layer_times(
        &mut report,
        &passes.totals,
        records,
        passes.count,
        passes.wall_ns,
    );
    overhead(&mut report, &passes);
    Ok(report)
}

/// One pass of the composed live stack over every rank.
struct LivePass {
    population: webgen::WebPopulation,
    config: crawler::CrawlConfig,
    crawler: Crawler,
}

impl LivePass {
    /// Visits and encodes every rank, checks it against
    /// `Crawler::visit_one`, and probes the layers; returns the ranks
    /// whose record differed.
    fn run(&self, tracer: &Tracer, counts: &SeamCounts, probes: &mut ProbeCounts) -> u64 {
        let (mut line, mut reference) = (String::new(), String::new());
        let mut mismatches = 0u64;
        for rank in 1..=SIZE {
            tracer.set_rank(rank);
            let record = tracer.span("bench.rank", || {
                let record =
                    stack::live_visit(&self.config, &self.population, rank, tracer, counts);
                line.clear();
                tracer.span("serde.encode", || {
                    serde_json::to_string_into(&record, &mut line)
                });
                record
            });
            let expected = tracer.span("crawler.visit", || {
                self.crawler.visit_one(&self.population, rank)
            });
            tracer.span("bench.check", || {
                reference.clear();
                serde_json::to_string_into(&expected, &mut reference);
                mismatches += u64::from(reference != line);
            });
            let captured = std::mem::take(&mut *counts.captured.borrow_mut());
            stack::probe(
                record.visit.as_ref(),
                &captured,
                tracer,
                self.config.browser.budget.page_script_steps,
                probes,
            );
        }
        mismatches
    }
}

/// The visit-stack counters and the per-rank visit percentiles.
pub fn visit_layers(
    report: &mut Report,
    passes: &Passes,
    counts: &SeamCounts,
    probes: &ProbeCounts,
    records: u64,
) -> std::io::Result<()> {
    report.set(
        "webgen.resolves_per_fetch",
        ratio(counts.resolves.get() as f64, counts.fetches.get() as f64),
    );
    let hits = counts.cache_hits.get() as f64;
    report.set(
        "netsim.cache_hit_ratio",
        ratio(hits, hits + counts.cache_misses.get() as f64),
    );
    let visits = &passes.visit_us;
    report.note("visit_samples", visits.len());
    // The metric is named p99.9, so it needs the samples the tail rule
    // asks of a p99.9; the highest percentile the rule allows is noted.
    match tail_percentile(visits.len()) {
        Some((highest, name)) if highest >= P999 => report.note_text("visit_tail_rule", name),
        _ => {
            return Err(std::io::Error::other(format!(
                "{} visit samples are too few for a p99.9 with 10 beyond it",
                visits.len()
            )))
        }
    }
    report.set("browser.visit_us_p50", percentile(visits, 5_000));
    report.set("browser.visit_us_p999", percentile(visits, P999));
    report.set(
        "browser.frames_per_record",
        per_record(probes.frames as f64, records),
    );
    report.set(
        "browser.scripts_per_record",
        per_record(probes.scripts as f64, records),
    );
    report.set(
        "browser.degradations_per_record",
        per_record(probes.degradations as f64, records),
    );
    let ic = probes.ic_hits as f64;
    report.set(
        "jsland.ic_hit_ratio",
        ratio(ic, ic + probes.ic_misses as f64),
    );
    report.set(
        "jsland.distinct_script_share",
        // Every pass runs the same scripts: one pass executes
        // `executed / passes` of them.
        ratio(
            probes.distinct.len() as f64,
            probes.executed as f64 / passes.count.max(1) as f64,
        ),
    );
    report.note_text(
        "jsland_memo",
        "warm: the visit compiled the same sources just before",
    );
    Ok(())
}

/// Tracing overhead: a traced pass against an untraced pass of the same
/// code, checks and probes included.
pub fn overhead(report: &mut Report, passes: &Passes) {
    let traced = passes.wall_ns as f64 / passes.count.max(1) as f64;
    let untraced = passes.untraced_ns as f64 / passes.untraced_count.max(1) as f64;
    report.set("trace.overhead_share", ratio(traced, untraced) - 1.0);
    report.note("passes", passes.count);
    report.note("untraced_pass_s", untraced / 1e9);
    report.note("traced_pass_s", traced / 1e9);
}
