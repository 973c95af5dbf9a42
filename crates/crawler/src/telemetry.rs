//! Lock-free crawl observability.
//!
//! [`CrawlTelemetry`] is a bag of atomics the crawl workers update as
//! they go: per-outcome counters, a simulated-visit-latency histogram,
//! retry/panic totals, per-worker utilization, and response-cache
//! hit/miss counts. Reads never block workers — [`CrawlTelemetry::snapshot`]
//! takes relaxed loads, so a progress printer can poll mid-crawl from
//! the sink callback (or another thread) without perturbing the run.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::run::SiteOutcome;

/// Upper bounds (simulated ms, inclusive) of the visit-latency
/// histogram buckets; the final bucket is unbounded.
pub const LATENCY_BOUNDS_MS: [u64; 7] = [5_000, 15_000, 30_000, 45_000, 60_000, 90_000, 120_000];

const OUTCOMES: usize = 6;

fn outcome_index(outcome: SiteOutcome) -> usize {
    match outcome {
        SiteOutcome::Success => 0,
        SiteOutcome::Unreachable => 1,
        SiteOutcome::LoadTimeout => 2,
        SiteOutcome::Ephemeral => 3,
        SiteOutcome::CrawlerError => 4,
        SiteOutcome::Excluded => 5,
    }
}

const OUTCOME_NAMES: [&str; OUTCOMES] = [
    "success",
    "unreachable",
    "load-timeout",
    "ephemeral",
    "crawler-error",
    "excluded",
];

/// Shared crawl counters. All methods take `&self`; share freely across
/// worker threads.
pub struct CrawlTelemetry {
    outcomes: [AtomicU64; OUTCOMES],
    latency: [AtomicU64; LATENCY_BOUNDS_MS.len() + 1],
    retries: AtomicU64,
    panics_caught: AtomicU64,
    degraded_visits: AtomicU64,
    degradation_events: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Per worker: visits completed and simulated ms spent.
    worker_visits: Vec<AtomicU64>,
    worker_sim_ms: Vec<AtomicU64>,
}

impl CrawlTelemetry {
    /// Telemetry for a crawl with `workers` workers.
    pub fn new(workers: usize) -> CrawlTelemetry {
        let workers = workers.max(1);
        CrawlTelemetry {
            outcomes: Default::default(),
            latency: Default::default(),
            retries: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            degraded_visits: AtomicU64::new(0),
            degradation_events: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            worker_visits: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            worker_sim_ms: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one finished visit (after all retries).
    pub fn record_visit(
        &self,
        worker: usize,
        outcome: SiteOutcome,
        elapsed_ms: u64,
        attempts: u32,
    ) {
        self.outcomes[outcome_index(outcome)].fetch_add(1, Ordering::Relaxed);
        let bucket = LATENCY_BOUNDS_MS
            .iter()
            .position(|&bound| elapsed_ms <= bound)
            .unwrap_or(LATENCY_BOUNDS_MS.len());
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
        if attempts > 1 {
            self.retries
                .fetch_add(u64::from(attempts - 1), Ordering::Relaxed);
        }
        let worker = worker % self.worker_visits.len();
        self.worker_visits[worker].fetch_add(1, Ordering::Relaxed);
        self.worker_sim_ms[worker].fetch_add(elapsed_ms, Ordering::Relaxed);
    }

    /// Records a visit attempt that panicked and was isolated.
    pub fn record_panic_caught(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one degraded visit and the number of degradation events
    /// it carried (graceful-degradation accounting).
    pub fn record_degradations(&self, events: u64) {
        self.degraded_visits.fetch_add(1, Ordering::Relaxed);
        self.degradation_events.fetch_add(events, Ordering::Relaxed);
    }

    /// Adds one visit's response-cache counters.
    pub fn record_cache(&self, hits: u64, misses: u64) {
        self.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.cache_misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Visits completed so far (any outcome).
    pub fn completed(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// A consistent-enough copy of all counters (relaxed loads).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            outcomes: self.outcomes.each_ref().map(|c| c.load(Ordering::Relaxed)),
            latency: self.latency.each_ref().map(|c| c.load(Ordering::Relaxed)),
            retries: self.retries.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            degraded_visits: self.degraded_visits.load(Ordering::Relaxed),
            degradation_events: self.degradation_events.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            worker_visits: self
                .worker_visits
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            worker_sim_ms: self
                .worker_sim_ms
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Point-in-time copy of [`CrawlTelemetry`].
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Per-outcome counts, [`SiteOutcome`] declaration order.
    pub outcomes: [u64; OUTCOMES],
    /// Latency histogram counts ([`LATENCY_BOUNDS_MS`] + overflow).
    pub latency: [u64; LATENCY_BOUNDS_MS.len() + 1],
    /// Total re-attempts across all visits.
    pub retries: u64,
    /// Visit attempts that panicked and were isolated.
    pub panics_caught: u64,
    /// Visits that carried at least one degradation event.
    pub degraded_visits: u64,
    /// Total degradation events across all visits.
    pub degradation_events: u64,
    /// Response-cache hits summed over visits.
    pub cache_hits: u64,
    /// Response-cache misses summed over visits.
    pub cache_misses: u64,
    /// Visits completed per worker.
    pub worker_visits: Vec<u64>,
    /// Simulated ms spent per worker.
    pub worker_sim_ms: Vec<u64>,
}

impl TelemetrySnapshot {
    /// Visits completed (any outcome).
    pub fn completed(&self) -> u64 {
        self.outcomes.iter().sum()
    }

    /// One-line progress summary, for periodic printing: `written` of
    /// the `attempted` records planned for this run are written, `ok` of
    /// them successes. Retries and panics count the visits so far. An
    /// empty plan renders as 100% done rather than dividing by zero.
    pub fn progress_line(&self, written: u64, ok: u64, attempted: u64) -> String {
        let percent = match attempted {
            0 => 100.0,
            _ => 100.0 * written as f64 / attempted as f64,
        };
        format!(
            "crawled {written}/{attempted} [{percent:.1}%] (ok {ok}, failed {}, retries {}, panics {})",
            written - ok,
            self.retries,
            self.panics_caught,
        )
    }

    /// Share of `attempted` completed, in percent. 100 when nothing was
    /// planned (an empty plan is trivially done — never a 0/0 NaN).
    pub fn percent_done(&self, attempted: u64) -> f64 {
        if attempted == 0 {
            return 100.0;
        }
        100.0 * self.completed() as f64 / attempted as f64
    }

    /// Sustained completion rate over `wall_secs` of wall-clock time, in
    /// visits per second. Zero elapsed time (a snapshot taken at start,
    /// or a sub-resolution interval) reports 0 instead of dividing by
    /// zero into infinity/NaN.
    pub fn rate_per_sec(&self, wall_secs: f64) -> f64 {
        if wall_secs.is_nan() || wall_secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / wall_secs
    }

    /// Estimated seconds to finish `remaining` visits at the sustained
    /// rate over `wall_secs`. Returns 0 when nothing remains and
    /// [`f64::INFINITY`] when no rate is measurable yet (zero elapsed or
    /// zero completed) — never NaN, so status surfaces can render it
    /// unconditionally.
    pub fn eta_secs(&self, remaining: u64, wall_secs: f64) -> f64 {
        if remaining == 0 {
            return 0.0;
        }
        let rate = self.rate_per_sec(wall_secs);
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        remaining as f64 / rate
    }

    /// Multi-line final report.
    pub fn report(&self) -> String {
        let mut out = String::from("crawl telemetry\n  outcomes:");
        for (name, count) in OUTCOME_NAMES.iter().zip(self.outcomes) {
            out.push_str(&format!(" {name} {count}"));
        }
        out.push_str(&format!(
            "\n  retries: {} ({} visit attempts panicked and were isolated)",
            self.retries, self.panics_caught
        ));
        out.push_str(&format!(
            "\n  degradation: {} degraded visits carrying {} events",
            self.degraded_visits, self.degradation_events
        ));
        let lookups = self.cache_hits + self.cache_misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            100.0 * self.cache_hits as f64 / lookups as f64
        };
        out.push_str(&format!(
            "\n  response cache: {} hits / {} misses ({hit_rate:.1}% hit rate)",
            self.cache_hits, self.cache_misses
        ));
        out.push_str("\n  visit latency (simulated):");
        let mut lower = 0;
        for (i, count) in self.latency.iter().enumerate() {
            match LATENCY_BOUNDS_MS.get(i) {
                Some(&bound) => {
                    out.push_str(&format!(" {}-{}s:{count}", lower / 1000, bound / 1000));
                    lower = bound;
                }
                None => out.push_str(&format!(" >{}s:{count}", lower / 1000)),
            }
        }
        out.push_str("\n  workers:");
        for (i, (visits, sim_ms)) in self
            .worker_visits
            .iter()
            .zip(&self.worker_sim_ms)
            .enumerate()
        {
            out.push_str(&format!(" w{i}:{visits}v/{}s", sim_ms / 1000));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = CrawlTelemetry::new(2);
        t.record_visit(0, SiteOutcome::Success, 12_000, 1);
        t.record_visit(1, SiteOutcome::Unreachable, 100, 3);
        t.record_cache(10, 4);
        t.record_panic_caught();
        let snap = t.snapshot();
        assert_eq!(snap.completed(), 2);
        assert_eq!(snap.outcomes[0], 1);
        assert_eq!(snap.outcomes[1], 1);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.panics_caught, 1);
        assert_eq!(snap.cache_hits, 10);
        assert_eq!(snap.cache_misses, 4);
        assert_eq!(snap.worker_visits, vec![1, 1]);
        // 12s lands in the 5-15s bucket, 100ms in the 0-5s bucket.
        assert_eq!(snap.latency[0], 1);
        assert_eq!(snap.latency[1], 1);
    }

    #[test]
    fn report_mentions_every_section() {
        let t = CrawlTelemetry::new(1);
        t.record_visit(0, SiteOutcome::Success, 200_000, 1);
        t.record_degradations(3);
        let report = t.snapshot().report();
        assert!(report.contains("outcomes"));
        assert!(report.contains("response cache"));
        assert!(report.contains("visit latency"));
        assert!(report.contains("workers"));
        assert!(report.contains("1 degraded visits carrying 3 events"));
        // 200s overflows the last bounded bucket.
        assert!(report.contains(">120s:1"));
    }

    #[test]
    fn progress_line_counts_failures() {
        let t = CrawlTelemetry::new(1);
        t.record_visit(0, SiteOutcome::Success, 1, 1);
        t.record_visit(0, SiteOutcome::LoadTimeout, 1, 2);
        let line = t.snapshot().progress_line(2, 1, 10);
        assert!(line.contains("2/10"), "{line}");
        assert!(line.contains("[20.0%]"), "{line}");
        assert!(line.contains("ok 1"), "{line}");
        assert!(line.contains("retries 1"), "{line}");
    }

    #[test]
    fn rate_math_survives_zero_elapsed_and_zero_attempted() {
        // Regression: a status poll in the first instant of a run (zero
        // wall-clock) or a fully resumed job (zero planned visits) must
        // not divide by zero into NaN/∞ percentages or panic.
        let t = CrawlTelemetry::new(1);
        let empty = t.snapshot();
        assert_eq!(empty.percent_done(0), 100.0);
        assert_eq!(empty.rate_per_sec(0.0), 0.0);
        assert_eq!(empty.rate_per_sec(f64::NAN), 0.0);
        assert_eq!(empty.eta_secs(0, 0.0), 0.0);
        assert_eq!(empty.eta_secs(10, 0.0), f64::INFINITY);
        let line = empty.progress_line(0, 0, 0);
        assert!(line.contains("0/0"), "{line}");
        assert!(line.contains("[100.0%]"), "{line}");
        assert!(!line.contains("NaN"), "{line}");

        t.record_visit(0, SiteOutcome::Success, 1, 1);
        let snap = t.snapshot();
        assert_eq!(snap.rate_per_sec(0.0), 0.0, "zero elapsed stays finite");
        assert_eq!(snap.rate_per_sec(2.0), 0.5);
        assert_eq!(snap.eta_secs(5, 2.0), 10.0);
        assert!(snap.eta_secs(5, 0.0).is_infinite());
        assert!(!snap.eta_secs(5, 0.0).is_nan());
    }
}
