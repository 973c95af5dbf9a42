//! What a run prints: the metric tables, the provenance line and the
//! final result line.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{median, per_record, ratio, valid_metric_name};
use crate::sys;
use crate::trace::LayerTotals;

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("cpu_ms_per_1k_records", "ms"),
    ("peak_rss_mb", "MiB"),
    ("db_bytes_per_record", "B"),
];

/// Per-layer metrics, reported by traced runs. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("webgen.resolve_us_per_record", "us"),
    ("webgen.resolves_per_fetch", "ratio"),
    ("netsim.fetch_self_us_per_record", "us"),
    ("netsim.cache_hit_ratio", "ratio"),
    ("netsim.replay_fetch_us_per_record", "us"),
    ("browser.visit_self_us_per_record", "us"),
    ("browser.visit_us_p50", "us"),
    ("browser.visit_us_p999", "us"),
    ("browser.frames_per_record", "count"),
    ("browser.scripts_per_record", "count"),
    ("browser.degradations_per_record", "count"),
    ("browser.unattributed_us_per_record", "us"),
    ("html.scan_us_per_record", "us"),
    ("policy.parse_us_per_record", "us"),
    ("jsland.run_us_per_record", "us"),
    ("jsland.ic_hit_ratio", "ratio"),
    ("jsland.distinct_script_share", "ratio"),
    ("serde.encode_us_per_record", "us"),
    ("crawler.visit_us_per_record", "us"),
    ("crawler.job_peak_writer_pending", "count"),
    ("crawler.bundle_submit_us_per_record", "us"),
    ("crawler.bundle_dedup_ratio", "ratio"),
    ("crawler.bundle_store_bytes_per_record", "B"),
    ("crawler.bundle_load_s", "s"),
    ("crawler.colsh_push_us_per_record", "us"),
    ("crawler.resume_scan_us_per_record", "us"),
    ("crawler.jsonl_decode_us_per_record", "us"),
    ("crawler.colsh_decode_us_per_record", "us"),
    ("analysis.fold_us_per_record", "us"),
    ("staticscan.scan_us_per_record", "us"),
    ("staticscan.distinct_script_share", "ratio"),
    ("analysis.finish_ms", "ms"),
    ("analysis.render_ms", "ms"),
    ("bench.glue_us_per_record", "us"),
    ("bench.check_us_per_record", "us"),
    ("trace.capture_us_per_record", "us"),
    ("trace.wall_us_per_record", "us"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Span names whose self time a per-layer metric reports, with the
/// metric. Together with the uncovered time they account for the whole
/// traced wall time.
pub const SELF_TIME_LAYERS: [(&str, &str); 18] = [
    ("webgen.resolve", "webgen.resolve_us_per_record"),
    ("netsim.fetch", "netsim.fetch_self_us_per_record"),
    ("netsim.replay", "netsim.replay_fetch_us_per_record"),
    ("browser.visit", "browser.visit_self_us_per_record"),
    ("html.scan", "html.scan_us_per_record"),
    ("policy.parse", "policy.parse_us_per_record"),
    ("jsland.run", "jsland.run_us_per_record"),
    ("serde.encode", "serde.encode_us_per_record"),
    ("crawler.visit", "crawler.visit_us_per_record"),
    ("crawler.colsh_push", "crawler.colsh_push_us_per_record"),
    ("crawler.resume_scan", "crawler.resume_scan_us_per_record"),
    ("crawler.jsonl_decode", "crawler.jsonl_decode_us_per_record"),
    ("crawler.colsh_decode", "crawler.colsh_decode_us_per_record"),
    ("analysis.fold", "analysis.fold_us_per_record"),
    ("staticscan.scan", "staticscan.scan_us_per_record"),
    ("bench.rank", "bench.glue_us_per_record"),
    ("bench.check", "bench.check_us_per_record"),
    ("trace.capture", "trace.capture_us_per_record"),
];

/// Spans timed per pass, not per record, reported in milliseconds per
/// pass.
pub const PER_PASS_LAYERS: [(&str, &str); 2] = [
    ("analysis.finish", "analysis.finish_ms"),
    ("analysis.render", "analysis.render_ms"),
];

/// One metric as printed.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A finished run.
pub struct Report {
    /// Ranks the run processed (each is one operation).
    pub attempted: u64,
    /// Ranks that failed a correctness gate.
    pub failed: u64,
    /// Whether every gate held.
    pub correct: bool,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Provenance beyond the common fields, values already JSON.
    pub provenance: Vec<(&'static str, String)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            correct: true,
            values: BTreeMap::new(),
            provenance: Vec::new(),
        }
    }

    /// Records a gate: `failed` of the operations it covers failed.
    pub fn gate(&mut self, what: &str, failed: u64) {
        if failed > 0 {
            eprintln!("gate failed: {what} ({failed} failed)");
            self.correct = false;
            self.failed += failed;
        }
    }

    /// Records a gate whose failure fails `operations` at once.
    pub fn check(&mut self, what: &str, holds: bool, operations: u64) {
        self.gate(what, if holds { 0 } else { operations.max(1) });
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a numeric or boolean provenance field.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }

    /// Adds a text provenance field.
    pub fn note_text(&mut self, key: &'static str, value: &str) {
        self.provenance.push((key, json_string(value)));
    }

    /// The metrics of `table`, each as recorded or 0.
    pub fn metrics(&self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        table
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// One timed round of an untraced run.
pub struct RoundSample {
    /// Dataset records the round processed.
    pub records: u64,
    /// Database bytes the round wrote or read.
    pub bytes: u64,
    /// Wall, CPU and peak memory of the round's timed call, its checks
    /// left out.
    pub measured: sys::Measured,
}

/// Rounds every untraced run times at least, however short `--seconds`.
pub const MIN_ROUNDS: usize = 3;

/// The timed phase of an untraced run: `round` back to back until
/// `seconds` have passed, then the end-to-end metrics. Before each round
/// the allocator's free heap goes back to the kernel, so a round's peak
/// resident set is not inflated by what earlier rounds freed (a user's
/// process runs one job, not many).
pub fn timed_rounds(
    report: &mut Report,
    seconds: f64,
    setup_s: f64,
    mut round: impl FnMut(&mut Report) -> std::io::Result<RoundSample>,
) -> std::io::Result<()> {
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        sys::release_free_heap();
        rounds.push(round(report)?);
    }
    end_to_end(report, setup_s, &rounds);
    Ok(())
}

/// Sets the end-to-end metrics from the timed rounds: records per wall
/// second and CPU per record over all rounds, the median round's peak
/// resident set, exact byte totals.
fn end_to_end(report: &mut Report, setup_s: f64, rounds: &[RoundSample]) {
    eprintln!(
        "rounds (records/s): {}",
        rounds
            .iter()
            .map(|r| format!("{:.0}", r.records as f64 / r.measured.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let records: u64 = rounds.iter().map(|r| r.records).sum();
    let wall_s: f64 = rounds.iter().map(|r| r.measured.wall_s).sum();
    let cpu_s: f64 = rounds.iter().map(|r| r.measured.cpu_s).sum();
    let bytes: u64 = rounds.iter().map(|r| r.bytes).sum();
    let peaks: Vec<f64> = rounds.iter().map(|r| r.measured.peak_rss_mb).collect();
    report.set("setup_s", setup_s);
    report.set("records_per_s", ratio(records as f64, wall_s));
    report.set("cpu_ms_per_1k_records", per_record(cpu_s * 1e6, records));
    report.set("peak_rss_mb", median(&peaks));
    report.set("db_bytes_per_record", per_record(bytes as f64, records));
    report.note("rounds", rounds.len());
}

/// Sets the per-layer time metrics from a traced phase over `records`
/// records and `passes` passes that took `wall_ns`, and checks that the
/// layers account for the whole wall time.
pub fn layer_times(
    report: &mut Report,
    totals: &LayerTotals,
    records: u64,
    passes: u64,
    wall_ns: u64,
) {
    let us = |ns: u64| per_record(ns as f64 / 1e3, records);
    for (span, metric) in SELF_TIME_LAYERS {
        report.set(metric, us(totals.self_of(span)));
    }
    for (span, metric) in PER_PASS_LAYERS {
        report.set(
            metric,
            per_record(totals.self_of(span) as f64 / 1e6, passes),
        );
    }
    let known: u64 = SELF_TIME_LAYERS
        .iter()
        .chain(&PER_PASS_LAYERS)
        .map(|(span, _)| totals.self_of(span))
        .sum();
    report.check(
        "every span belongs to a reported layer",
        known == totals.self_sum(),
        records,
    );
    report.check(
        "root spans fit in the traced wall time",
        totals.covered_ns <= wall_ns,
        records,
    );
    let visit_self = totals.self_of("browser.visit");
    let probed = ["html.scan", "policy.parse", "jsland.run"]
        .iter()
        .map(|s| totals.self_of(s))
        .sum::<u64>();
    report.set(
        "browser.unattributed_us_per_record",
        us(visit_self) - us(probed),
    );
    report.set("trace.wall_us_per_record", us(wall_ns));
    report.set(
        "trace.unattributed_share",
        (wall_ns - totals.covered_ns.min(wall_ns)) as f64 / wall_ns.max(1) as f64,
    );
    let accounted = totals.self_sum() + (wall_ns - totals.covered_ns.min(wall_ns));
    eprintln!(
        "traced wall {:.3} s = layer self times {:.3} s + unattributed {:.3} s ({} records)",
        wall_ns as f64 / 1e9,
        totals.self_sum() as f64 / 1e9,
        (wall_ns - totals.covered_ns.min(wall_ns)) as f64 / 1e9,
        records
    );
    report.check(
        "layer times add up to the wall time",
        accounted == wall_ns,
        records,
    );
}

/// Formats a finished run as the provenance line and the result line.
/// `common` values are JSON, as [`Report::provenance`] values are.
pub fn render(report: &Report, traced: bool, common: &[(&'static str, String)]) -> String {
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics = report.metrics(table);
    let mut provenance = String::from("{\"provenance\":{");
    for (i, (key, value)) in common.iter().chain(&report.provenance).enumerate() {
        if i > 0 {
            provenance.push(',');
        }
        provenance.push_str(&format!("\"{key}\":{value}"));
    }
    provenance.push_str("}}");
    let mut result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.correct && report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
    for (i, metric) in metrics.iter().enumerate() {
        assert!(
            valid_metric_name(metric.name),
            "bad metric name {}",
            metric.name
        );
        assert!(metric.value.is_finite(), "{} is not finite", metric.name);
        if i > 0 {
            result.push(',');
        }
        result.push_str(&format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            metric.name,
            json_number(metric.value),
            metric.unit
        ));
    }
    result.push_str("}}");
    format!("{provenance}\n{result}")
}

/// `text` as a JSON string.
pub fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A metric value with every digit it was measured with.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_hold_only_valid_distinct_names() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for (_, metric) in SELF_TIME_LAYERS.iter().chain(&PER_PASS_LAYERS) {
            assert!(PER_LAYER.iter().any(|(n, _)| n == metric), "{metric}");
        }
    }

    #[test]
    fn zero_record_rounds_report_zero_per_record() {
        let mut report = Report::new();
        let rounds = [RoundSample {
            records: 0,
            bytes: 0,
            measured: sys::Measured {
                wall_s: 1.0,
                cpu_s: 0.5,
                peak_rss_mb: 10.0,
            },
        }];
        end_to_end(&mut report, 0.1, &rounds);
        assert_eq!(report.values["records_per_s"], 0.0);
        assert_eq!(report.values["cpu_ms_per_1k_records"], 0.0);
        assert_eq!(report.values["db_bytes_per_record"], 0.0);
        assert_eq!(report.values["peak_rss_mb"], 10.0);
        let totals = LayerTotals::default();
        layer_times(&mut report, &totals, 0, 0, 1_000);
        assert_eq!(report.values["html.scan_us_per_record"], 0.0);
        assert_eq!(report.values["trace.unattributed_share"], 1.0);
        assert!(report.correct);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::new();
        report.attempted = 3;
        report.set("records_per_s", 1234.5);
        report.note_text("commit", "1234567e5 \"quoted\"");
        let text = render(&report, false, &[("seed", "7".to_string())]);
        let first: serde_json::Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert!(
            format!("{first:?}").contains("1234567e5 \\\"quoted\\\""),
            "{first:?}"
        );
        let last = text.lines().last().unwrap();
        let value: serde_json::Value = serde_json::from_str(last).unwrap();
        let object = value.as_object().unwrap();
        let keys: Vec<&str> = object.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys.len(), 4);
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(keys.contains(&key), "{key}");
        }
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.125), "0.125");
    }
}
