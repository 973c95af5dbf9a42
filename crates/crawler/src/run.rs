//! Visiting one site: classification and fault tolerance. The worker
//! pool that spreads the visits lives in [`crate::jobs`].
//!
//! Fault model (mirrors what the paper's §4 crawl funnel absorbed at
//! scale):
//!
//! * **Panic isolation** — every visit attempt runs under
//!   `catch_unwind`; a panicking visit (injected via
//!   [`netsim::FaultSpec`] or a real bug) becomes a
//!   [`SiteOutcome::CrawlerError`] record instead of taking the whole
//!   worker pool down.
//! * **Bounded retries** — transient failures (`Unreachable`,
//!   `LoadTimeout`) are re-attempted up to [`CrawlConfig::max_retries`]
//!   times with exponential backoff *on the simulated clock*, so
//!   retries cost simulated time, never wall-clock sleeps, and results
//!   stay deterministic.
//! * **Telemetry** — workers update a lock-free [`CrawlTelemetry`]
//!   (outcome counters, latency histogram, retry totals, per-worker
//!   utilization, cache hit rates) that can be polled mid-crawl.

use std::collections::BTreeSet;
use std::convert::Infallible;

use browser::{Browser, BrowserConfig, PageVisit, VisitError, VisitOutcome};
use netsim::{
    CachingNetwork, FaultSpec, FaultyNetwork, Network, RecordingNetwork, ReplayAudit,
    ReplayNetwork, SimClock, SimNetwork, TapeHandle,
};
use serde::{Deserialize, Serialize};
use webgen::WebPopulation;

use crate::bundle::{BundleReader, ReplayBundle, SiteBundle};
use crate::funnel::CrawlFunnel;
use crate::jobs::JobError;
use crate::telemetry::CrawlTelemetry;

/// Crawl configuration.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Parallel visit workers of the job engine's pool (the paper used
    /// 40). [`Crawler::crawl`] and the other loops run on one thread.
    pub workers: usize,
    /// Browser configuration for every visit.
    pub browser: BrowserConfig,
    /// Interaction-mode extras: also navigate up to this many same-origin
    /// links per site (0 in the main measurement; Appendix A.3's manual
    /// protocol visits multiple paths).
    pub navigate_links: usize,
    /// Per-visit response-cache capacity (0 = no caching). Browsers cache
    /// shared tracker scripts; the crawl is stateless *across* sites like
    /// the paper's (C11: headful stateless browser), so the cache lives
    /// only within one visit.
    pub cache_capacity: usize,
    /// Re-attempts allowed after a transient failure (`Unreachable` /
    /// `LoadTimeout`). The synthetic population's failures are permanent
    /// per rank, so retries change outcomes only when the network layer
    /// injects transient faults — but every retry is recorded on
    /// [`SiteRecord::attempts`] either way.
    pub max_retries: u32,
    /// Backoff before retry `n` (1-based): `retry_backoff_ms << (n - 1)`
    /// simulated milliseconds, with the shift capped and the result
    /// clamped to one hour so huge `--retries` budgets cannot overflow.
    pub retry_backoff_ms: u64,
    /// Deterministic fault injection (disabled by default). Faults are
    /// keyed by site rank, so they are independent of worker count and
    /// visit order.
    pub faults: FaultSpec,
}

impl Default for CrawlConfig {
    fn default() -> CrawlConfig {
        CrawlConfig {
            workers: 8,
            browser: BrowserConfig::default(),
            navigate_links: 0,
            cache_capacity: 64,
            max_retries: 2,
            retry_backoff_ms: 500,
            faults: FaultSpec::disabled(),
        }
    }
}

/// Final classification of one origin's visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteOutcome {
    /// Complete visit; the record carries data.
    Success,
    /// DNS / connection failure.
    Unreachable,
    /// Load-event timeout.
    LoadTimeout,
    /// Ephemeral-content collection error.
    Ephemeral,
    /// Crawler crash.
    CrawlerError,
    /// Page-budget timeout — data partial, excluded from analysis.
    Excluded,
}

/// One origin's crawl record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteRecord {
    /// Rank in the origin list (1-based).
    pub rank: u64,
    /// The origin visited.
    pub origin: String,
    /// Outcome classification.
    pub outcome: SiteOutcome,
    /// Collected data for successful (and excluded-partial) visits.
    pub visit: Option<PageVisit>,
    /// Simulated milliseconds spent on this origin, including retries
    /// and backoff.
    pub elapsed_ms: u64,
    /// Visit attempts consumed (1 = no retries). 0 in records written
    /// before attempt tracking existed.
    #[serde(default)]
    pub attempts: u32,
}

/// A completed crawl.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CrawlDataset {
    /// One record per attempted origin, rank order.
    pub records: Vec<SiteRecord>,
}

impl CrawlDataset {
    /// Funnel accounting over the records.
    pub fn funnel(&self) -> CrawlFunnel {
        let mut funnel = CrawlFunnel {
            attempted: self.records.len() as u64,
            ..CrawlFunnel::default()
        };
        for record in &self.records {
            funnel.count_record(record);
        }
        funnel
    }

    /// Successful visits only (the analysis population).
    pub fn successes(&self) -> impl Iterator<Item = &SiteRecord> {
        self.records
            .iter()
            .filter(|r| r.outcome == SiteOutcome::Success)
    }

    /// Total simulated crawl time across all origins (single-worker
    /// equivalent), in milliseconds.
    pub fn total_simulated_ms(&self) -> u64 {
        self.records.iter().map(|r| r.elapsed_ms).sum()
    }
}

/// What one isolated visit attempt produced.
struct AttemptOutcome {
    outcome: SiteOutcome,
    visit: Option<PageVisit>,
    cache_hits: u64,
    cache_misses: u64,
    panicked: bool,
}

/// The crawler.
pub struct Crawler {
    pub(crate) config: CrawlConfig,
}

impl Crawler {
    /// Creates a crawler.
    pub fn new(config: CrawlConfig) -> Crawler {
        Crawler { config }
    }

    /// Visits one origin and classifies the result, retrying transient
    /// failures per the config.
    pub fn visit_one(&self, population: &WebPopulation, rank: u64) -> SiteRecord {
        self.visit_observed(population, rank, None)
    }

    /// [`visit_one`](Crawler::visit_one), reporting to `telemetry` as
    /// worker `worker` when given. Shared with the job engine
    /// ([`crate::jobs`]), whose lease workers drive it directly.
    pub(crate) fn visit_observed(
        &self,
        population: &WebPopulation,
        rank: u64,
        telemetry: Option<(&CrawlTelemetry, usize)>,
    ) -> SiteRecord {
        let origin = population.origin(rank);
        let faults = &self.config.faults;
        let Ok(record) = self.visit_loop(rank, &origin, telemetry, |attempt| {
            let network = SimNetwork::new(population);
            Ok::<_, Infallible>(FaultyNetwork::new(network, faults, rank, attempt))
        });
        record
    }

    /// [`visit_observed`](Crawler::visit_observed), also capturing every
    /// attempt's network exchanges: returns the record and the site's
    /// bundle for the store (see [`crate::bundle`]).
    pub(crate) fn visit_recorded(
        &self,
        population: &WebPopulation,
        rank: u64,
        telemetry: Option<(&CrawlTelemetry, usize)>,
    ) -> (SiteRecord, SiteBundle) {
        let origin = population.origin(rank);
        let faults = &self.config.faults;
        // Tape handles are created out here, outside the attempt's panic
        // isolation, so exchanges recorded before an injected crash
        // survive the unwind.
        let mut handles: Vec<TapeHandle> = Vec::new();
        let Ok(record) = self.visit_loop(rank, &origin, telemetry, |attempt| {
            let handle = TapeHandle::new();
            handles.push(handle.clone());
            let network = FaultyNetwork::new(SimNetwork::new(population), faults, rank, attempt);
            Ok::<_, Infallible>(RecordingNetwork::new(network, handle))
        });
        let bundle = SiteBundle {
            rank,
            origin: origin.to_string(),
            synthesized: false,
            attempts: handles.iter().map(TapeHandle::take).collect(),
        };
        (record, bundle)
    }

    /// Replays one recorded origin: the same retry loop and
    /// classification as [`visit_one`](Crawler::visit_one), but every
    /// attempt's network is served from the bundle's tapes — the page
    /// generator is never consulted. Panics where the store cannot
    /// reproduce the recorded visit.
    pub fn replay_one(&self, bundle: &ReplayBundle, rank: u64) -> SiteRecord {
        bundle
            .with_reader(|reader| self.replay_observed(bundle, reader, rank, None))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`replay_one`](Crawler::replay_one) through `reader`, with
    /// telemetry reporting. A replay that strays from its tape inside an
    /// attempt, needs an attempt the store lacks, or leaves recorded
    /// exchanges or attempts unused is not the recorded visit: it fails
    /// with [`JobError::Diverged`]. A store that no longer reads as it
    /// loaded fails with the read error.
    pub(crate) fn replay_observed(
        &self,
        bundle: &ReplayBundle,
        reader: &mut BundleReader,
        rank: u64,
        telemetry: Option<(&CrawlTelemetry, usize)>,
    ) -> Result<SiteRecord, JobError> {
        let diverged = |detail: String| JobError::Diverged { rank, detail };
        let Some(manifest) = bundle.read_manifest(reader, rank)? else {
            return Err(diverged(
                "the bundle store has no manifest for this rank".into(),
            ));
        };
        if manifest.synthesized {
            // The recording job quarantined this rank without visiting:
            // reproduce the synthesized record it wrote.
            let record = SiteRecord {
                rank,
                origin: manifest.origin,
                outcome: SiteOutcome::CrawlerError,
                visit: None,
                elapsed_ms: 0,
                attempts: 0,
            };
            if let Some((telemetry, worker)) = telemetry {
                telemetry.record_visit(worker, record.outcome, 0, 0);
            }
            return Ok(record);
        }
        let origin = weburl::Url::parse(&manifest.origin).map_err(|e| {
            diverged(format!(
                "recorded origin {:?} unparseable: {e:?}",
                manifest.origin
            ))
        })?;
        let recorded = manifest.attempts.len();
        let mut attempts = manifest.attempts.into_iter();
        // Each attempt reports to its own audit, kept out here like a
        // recording's tape handles; the loop asks for the next attempt
        // only once the previous one has ended, so it is judged then.
        let mut audit = ReplayAudit::new();
        let record = self.visit_loop(rank, &origin, telemetry, |attempt| {
            audit.verdict().map_err(diverged)?;
            let Some(next) = attempts.next() else {
                return Err(diverged(format!("no recorded attempt {attempt}")));
            };
            let tape = bundle.read_tape(reader, next)?;
            audit = ReplayAudit::new();
            Ok(ReplayNetwork::new(tape).audited(&audit))
        })?;
        audit.verdict().map_err(diverged)?;
        match record.attempts as usize {
            replayed if replayed == recorded => Ok(record),
            replayed => Err(diverged(format!(
                "{replayed} of {recorded} attempts replayed"
            ))),
        }
    }

    /// The shared retry loop: attempts visits over networks produced by
    /// `network_for` (live, recording, or replay) until the outcome is
    /// final, then classifies and reports. Stops at the first attempt
    /// `network_for` has no network for.
    fn visit_loop<N: Network, E>(
        &self,
        rank: u64,
        origin: &weburl::Url,
        telemetry: Option<(&CrawlTelemetry, usize)>,
        mut network_for: impl FnMut(u32) -> Result<N, E>,
    ) -> Result<SiteRecord, E> {
        let mut clock = SimClock::new();
        let mut attempts: u32 = 0;
        let outcome = loop {
            let network = network_for(attempts)?;
            let attempt = self.drive_attempt(network, origin, &mut clock);
            attempts += 1;
            if let Some((telemetry, _)) = telemetry {
                telemetry.record_cache(attempt.cache_hits, attempt.cache_misses);
                if attempt.panicked {
                    telemetry.record_panic_caught();
                }
            }
            let transient = matches!(
                attempt.outcome,
                SiteOutcome::Unreachable | SiteOutcome::LoadTimeout
            );
            if transient && attempts <= self.config.max_retries {
                // Exponential backoff, paid in simulated time; the
                // shared schedule caps the user-controlled exponent and
                // clamps the advance (see `netsim::capped_backoff_ms`).
                clock.advance(netsim::capped_backoff_ms(
                    self.config.retry_backoff_ms,
                    attempts,
                ));
                continue;
            }
            break attempt;
        };
        let record = SiteRecord {
            rank,
            origin: origin.to_string(),
            outcome: outcome.outcome,
            visit: outcome.visit,
            elapsed_ms: clock.now_ms(),
            attempts,
        };
        if let Some((telemetry, worker)) = telemetry {
            telemetry.record_visit(worker, record.outcome, record.elapsed_ms, attempts);
            if let Some(visit) = &record.visit {
                if !visit.degradations.is_empty() {
                    telemetry.record_degradations(visit.degradations.len() as u64);
                }
            }
        }
        Ok(record)
    }

    /// Runs one visit attempt in panic isolation: a panicking visit
    /// (injected fault or real bug) classifies as `CrawlerError` instead
    /// of unwinding into the worker pool. The response cache is layered
    /// on here so recording networks sit beneath it (tapes hold cache
    /// misses only) and replay rebuilds identical hit/miss accounting.
    fn drive_attempt<N: Network>(
        &self,
        inner: N,
        origin: &weburl::Url,
        clock: &mut SimClock,
    ) -> AttemptOutcome {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let network = CachingNetwork::new(inner, self.config.cache_capacity);
            let mut browser = Browser::new(network, self.config.browser.clone());
            let (outcome, visit) = match browser.visit(origin, clock) {
                Ok(mut visit) => {
                    // Interaction-mode navigation: follow same-origin links
                    // and merge their frames (Appendix A.3 manual protocol).
                    if self.config.navigate_links > 0 {
                        let base = visit.top_frame().and_then(|top| top.url.clone());
                        debug_assert!(
                            !matches!(base.as_deref(), Some("")),
                            "top frame carries an empty URL"
                        );
                        // A frame-less or URL-less page has nothing to
                        // navigate relative to; skip rather than fabricate
                        // links from an empty base.
                        if let Some(base) = base.filter(|b| !b.is_empty()) {
                            for link in html_links(&base, self.config.navigate_links) {
                                if let Ok(link_url) = weburl::Url::parse(&link) {
                                    if let Ok(extra) = browser.visit(&link_url, clock) {
                                        merge_visits(&mut visit, extra);
                                    }
                                }
                            }
                        }
                    }
                    let outcome = match visit.outcome {
                        VisitOutcome::Success => SiteOutcome::Success,
                        VisitOutcome::EphemeralContext => SiteOutcome::Ephemeral,
                        VisitOutcome::CrawlerCrash => SiteOutcome::CrawlerError,
                        VisitOutcome::PageTimeout => SiteOutcome::Excluded,
                    };
                    (outcome, Some(visit))
                }
                Err(VisitError::Unreachable) => (SiteOutcome::Unreachable, None),
                Err(VisitError::LoadTimeout) => (SiteOutcome::LoadTimeout, None),
            };
            let network = browser.into_network();
            AttemptOutcome {
                outcome,
                visit,
                cache_hits: network.hits(),
                cache_misses: network.misses(),
                panicked: false,
            }
        }));
        result.unwrap_or(AttemptOutcome {
            outcome: SiteOutcome::CrawlerError,
            visit: None,
            cache_hits: 0,
            cache_misses: 0,
            panicked: true,
        })
    }

    /// Crawls the whole population in rank order on the calling thread,
    /// collecting every record. The worker pool, which writes shard
    /// files, is [`crate::crawl_shards`].
    pub fn crawl(&self, population: &WebPopulation) -> CrawlDataset {
        let ranks = 1..=population.config().size;
        let records = ranks.map(|rank| self.visit_one(population, rank)).collect();
        CrawlDataset { records }
    }

    /// Streams a recorded crawl back out of a bundle store on the
    /// calling thread: every rank not in `completed` is replayed from
    /// tape in rank order, reported to `telemetry` as worker 0 and handed
    /// to `sink`; the funnel covers only those ranks. Panics where the
    /// store cannot reproduce its recording ([`crate::crawl_shards`]
    /// fails with an error instead).
    pub fn replay_streaming_observed<F>(
        &self,
        bundle: &ReplayBundle,
        completed: &BTreeSet<u64>,
        telemetry: &CrawlTelemetry,
        mut sink: F,
    ) -> CrawlFunnel
    where
        F: FnMut(SiteRecord),
    {
        let mut funnel = CrawlFunnel::default();
        for rank in (1..=bundle.sites()).filter(|rank| !completed.contains(rank)) {
            let record = bundle
                .with_reader(|reader| {
                    self.replay_observed(bundle, reader, rank, Some((telemetry, 0)))
                })
                .unwrap_or_else(|e| panic!("{e}"));
            funnel.attempted += 1;
            funnel.count_record(&record);
            sink(record);
        }
        funnel
    }
}

/// Same-origin inner links the interaction crawl follows. The synthetic
/// sites expose `/about` and `/contact`.
fn html_links(base: &str, max: usize) -> Vec<String> {
    let base = base.trim_end_matches('/');
    ["/about", "/contact"]
        .iter()
        .take(max)
        .map(|p| format!("{base}{p}"))
        .collect()
}

/// Merges an extra page visit's frames into the main visit (interaction
/// mode aggregates per-site observations across paths).
///
/// The merged document must not introduce a second top-level frame —
/// and a non-top frame must keep a parent ("no parent ⇒ top-level" is a
/// dataset invariant) — so the extra page's top frame is reparented
/// under the main visit's top frame, and depths are recomputed along
/// the (already-merged) parent chain.
fn merge_visits(main: &mut PageVisit, extra: PageVisit) {
    let offset = main.frames.len();
    let mut main_top = main
        .frames
        .iter()
        .find(|f| f.is_top_level)
        .map(|f| f.frame_id);
    for mut prompt in extra.prompts {
        prompt.frame_id += offset;
        main.prompts.push(prompt);
    }
    for mut frame in extra.frames {
        frame.frame_id += offset;
        frame.parent = frame.parent.map(|p| p + offset);
        if frame.is_top_level {
            match main_top {
                // Only the original landing page is the site's top-level
                // document; the navigated page hangs off it like a child.
                Some(top) => {
                    frame.is_top_level = false;
                    frame.parent = Some(top);
                }
                // The main visit never produced a top-level frame (e.g.
                // its page timed out before one was recorded). Demoting
                // this frame would leave it parentless yet non-top,
                // breaking the "no parent ⇒ top-level" invariant — so
                // it becomes the merged document's top frame instead.
                None => main_top = Some(frame.frame_id),
            }
        }
        // Parents precede children (parent id < frame id), so the
        // parent's recomputed depth is already in place.
        frame.depth = match frame.parent {
            Some(parent) => main.frames[parent].depth + 1,
            None => 0,
        };
        main.frames.push(frame);
    }
    for mut event in extra.degradations {
        event.frame_id += offset;
        main.degradations.push(event);
    }
    main.schema_version = if main.degradations.is_empty() {
        0
    } else {
        browser::SCHEMA_VERSION
    };
}

/// Runs `manifest`'s crawl on the worker pool with `workers` workers
/// into one scratch JSONL shard, returning its report and records.
#[cfg(test)]
fn pool_crawl(manifest: &crate::JobManifest, workers: usize) -> (crate::JobReport, CrawlDataset) {
    let tag = format!(
        "seed{}-size{}-workers{workers}",
        manifest.seed, manifest.size
    );
    let path = crate::scratch::ScratchFile::new("permodyssey-pool", &format!("{tag}.jsonl"));
    let source = crate::CrawlSource::Live(manifest, None);
    // Small leases, so that every worker gets some of a small crawl.
    let opts = crate::JobOptions {
        workers,
        lease_records: 8,
        ..crate::JobOptions::default()
    };
    let paths = [path.to_path_buf()];
    let report = crate::crawl_shards(source, &paths, crate::DbFormat::Jsonl, &opts).unwrap();
    (report, crate::read_jsonl(&path).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use webgen::PopulationConfig;

    fn small_population() -> WebPopulation {
        WebPopulation::new(PopulationConfig { seed: 7, size: 120 })
    }

    #[test]
    fn crawl_visits_every_rank_once() {
        let pop = small_population();
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        assert_eq!(dataset.records.len(), 120);
        for (i, r) in dataset.records.iter().enumerate() {
            assert_eq!(r.rank, i as u64 + 1);
            assert!(r.attempts >= 1, "rank {} records its attempts", r.rank);
        }
    }

    #[test]
    fn parallel_and_serial_crawls_agree() {
        let manifest = crate::JobManifest::new(7, 120, 1, crate::DbFormat::Jsonl);
        let (_, serial) = pool_crawl(&manifest, 1);
        let (_, parallel) = pool_crawl(&manifest, 6);
        for (a, b) in serial.records.iter().zip(&parallel.records) {
            assert_eq!(a.outcome, b.outcome, "rank {}", a.rank);
            assert_eq!(
                a.visit.as_ref().map(|v| v.frames.len()),
                b.visit.as_ref().map(|v| v.frames.len()),
                "rank {}",
                a.rank
            );
        }
    }

    #[test]
    fn funnel_covers_all_outcomes() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 800 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let funnel = dataset.funnel();
        assert_eq!(funnel.attempted, 800);
        let sum = funnel.succeeded
            + funnel.unreachable
            + funnel.load_timeouts
            + funnel.ephemeral
            + funnel.crawler_errors
            + funnel.excluded;
        assert_eq!(sum, 800);
        // Shape: successes dominate; every major failure class present.
        assert!(funnel.success_rate() > 0.7, "{}", funnel.report());
        assert!(funnel.unreachable > 0);
        assert!(funnel.ephemeral > funnel.unreachable / 4);
    }

    #[test]
    fn interaction_mode_collects_more() {
        let pop = small_population();
        // Find a healthy rank.
        let plain = Crawler::new(CrawlConfig::default());
        let rank = (1..=120u64)
            .find(|&r| plain.visit_one(&pop, r).outcome == SiteOutcome::Success)
            .unwrap();
        let without = plain.visit_one(&pop, rank);
        let with = Crawler::new(CrawlConfig {
            navigate_links: 2,
            browser: BrowserConfig {
                interaction: true,
                ..BrowserConfig::default()
            },
            ..CrawlConfig::default()
        })
        .visit_one(&pop, rank);
        let frames = |r: &SiteRecord| r.visit.as_ref().unwrap().frames.len();
        assert!(frames(&with) >= frames(&without));
    }

    #[test]
    fn average_visit_time_is_realistic() {
        // §4: ~35 simulated seconds per website (load + 20 s settle).
        let pop = small_population();
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let succeeded: Vec<_> = dataset.successes().collect();
        let avg_ms =
            succeeded.iter().map(|r| r.elapsed_ms).sum::<u64>() / succeeded.len().max(1) as u64;
        assert!(
            (20_000..60_000).contains(&avg_ms),
            "avg visit time {avg_ms} ms"
        );
    }

    #[test]
    fn retries_are_bounded_and_recorded() {
        let pop = small_population();
        let crawler = Crawler::new(CrawlConfig::default());
        let dataset = crawler.crawl(&pop);
        for record in &dataset.records {
            match record.outcome {
                // Permanent transient-class failures burn the full budget.
                SiteOutcome::Unreachable | SiteOutcome::LoadTimeout => {
                    assert_eq!(record.attempts, 1 + CrawlConfig::default().max_retries)
                }
                _ => assert_eq!(record.attempts, 1, "rank {}", record.rank),
            }
        }
    }

    #[test]
    fn huge_retry_budget_does_not_overflow_backoff() {
        // --retries is user-settable; 64 retries means backoff shifts up
        // to 63, which used to overflow `retry_backoff_ms << (n - 1)`
        // (panic in debug, wrap in release). The crawl must complete with
        // the full attempt count and a sane, clamped elapsed time.
        let pop = small_population();
        let probe = Crawler::new(CrawlConfig::default());
        let rank = (1..=120u64)
            .find(|&r| probe.visit_one(&pop, r).outcome == SiteOutcome::Unreachable)
            .expect("population contains an unreachable rank");
        let record = Crawler::new(CrawlConfig {
            max_retries: 64,
            ..CrawlConfig::default()
        })
        .visit_one(&pop, rank);
        assert_eq!(record.outcome, SiteOutcome::Unreachable);
        assert_eq!(record.attempts, 65);
        // Every backoff is clamped to MAX_BACKOFF_MS, so the total can't
        // have wrapped into nonsense.
        assert!(
            record.elapsed_ms <= 65 * netsim::MAX_BACKOFF_MS,
            "{}",
            record.elapsed_ms
        );
    }

    #[test]
    fn merge_onto_topless_visit_keeps_invariants() {
        fn frame(frame_id: usize, parent: Option<usize>, top: bool) -> browser::FrameRecord {
            browser::FrameRecord {
                frame_id,
                parent,
                depth: if top { 0 } else { 1 },
                url: Some(format!("https://example.test/{frame_id}")),
                origin: "https://example.test".to_string(),
                site: Some("example.test".to_string()),
                is_top_level: top,
                is_local_document: false,
                iframe_attrs: None,
                permissions_policy_header: None,
                feature_policy_header: None,
                csp_header: None,
                invocations: Vec::new(),
                scripts: Vec::new(),
                allowed_features: registry::PermissionSet::EMPTY,
            }
        }
        fn visit(frames: Vec<browser::FrameRecord>) -> PageVisit {
            PageVisit {
                requested_url: "https://example.test/".to_string(),
                frames,
                prompts: Vec::new(),
                outcome: VisitOutcome::Success,
                elapsed_ms: 0,
                schema_version: 0,
                degradations: Vec::new(),
            }
        }
        // A main visit that never recorded a top-level frame (e.g. the
        // page timed out before one landed). Merging used to demote the
        // extra page's top frame to parent=None + is_top_level=false.
        let mut main = visit(Vec::new());
        merge_visits(
            &mut main,
            visit(vec![frame(0, None, true), frame(1, Some(0), false)]),
        );
        // A second merge must reparent under the newly promoted top.
        merge_visits(&mut main, visit(vec![frame(0, None, true)]));
        let tops = main.frames.iter().filter(|f| f.is_top_level).count();
        assert_eq!(tops, 1, "exactly one top-level frame after merges");
        for frame in &main.frames {
            match frame.parent {
                Some(parent) => {
                    assert!(parent < frame.frame_id);
                    assert_eq!(frame.depth, main.frames[parent].depth + 1);
                }
                None => {
                    assert!(frame.is_top_level, "no parent ⇒ top-level");
                    assert_eq!(frame.depth, 0);
                }
            }
        }
    }

    #[test]
    fn merged_visits_keep_frame_invariants() {
        let pop = small_population();
        let crawler = Crawler::new(CrawlConfig {
            navigate_links: 2,
            ..CrawlConfig::default()
        });
        let mut checked = 0;
        for rank in 1..=40u64 {
            let record = crawler.visit_one(&pop, rank);
            let Some(visit) = record.visit else { continue };
            let tops = visit.frames.iter().filter(|f| f.is_top_level).count();
            assert_eq!(tops, 1, "rank {rank}: exactly one top-level frame");
            for frame in &visit.frames {
                match frame.parent {
                    Some(parent) => {
                        assert!(parent < frame.frame_id, "rank {rank}");
                        assert_eq!(frame.depth, visit.frames[parent].depth + 1, "rank {rank}");
                    }
                    None => {
                        assert!(frame.is_top_level, "rank {rank}: no parent ⇒ top-level");
                        assert_eq!(frame.depth, 0, "rank {rank}");
                    }
                }
            }
            checked += 1;
        }
        assert!(checked > 0, "at least one visit with data");
    }
}

#[cfg(test)]
mod streaming_tests {
    use super::*;

    #[test]
    fn streaming_delivers_in_rank_order_and_matches_batch() {
        let manifest = crate::JobManifest::new(7, 90, 1, crate::DbFormat::Jsonl);
        let (report, streamed) = pool_crawl(&manifest, 4);
        let streamed = streamed.records;
        assert_eq!(streamed.len(), 90);
        for (i, r) in streamed.iter().enumerate() {
            assert_eq!(r.rank, i as u64 + 1, "in-order delivery");
        }
        let batch = Crawler::new(manifest.crawl_config(4)).crawl(&manifest.population());
        assert_eq!(report.funnel, batch.funnel());
        for (a, b) in streamed.iter().zip(&batch.records) {
            assert_eq!(a.outcome, b.outcome);
        }
    }

    #[test]
    fn streaming_skips_completed_ranks() {
        // Replay is the one stream with a skip set: record a small crawl,
        // then replay it with ranks 1..=25 already done.
        let pop = WebPopulation::new(webgen::PopulationConfig { seed: 7, size: 40 });
        let config = CrawlConfig::default();
        let dir =
            std::env::temp_dir().join(format!("permodyssey-replay-skip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = crate::bundle::BundleMeta::for_crawl(&config, 7, 40, false);
        let recorder = crate::bundle::BundleRecorder::create(&dir, &meta).unwrap();
        let crawler = Crawler::new(config);
        for rank in 1..=40 {
            let (_, bundle) = crawler.visit_recorded(&pop, rank, None);
            recorder.submit(bundle).unwrap();
        }
        recorder.finish().unwrap();
        let bundle = ReplayBundle::load(&dir).unwrap();
        let completed: BTreeSet<u64> = (1..=25).collect();
        let telemetry = CrawlTelemetry::new(1);
        let mut streamed: Vec<u64> = Vec::new();
        let funnel = Crawler::new(bundle.meta().replay_config(1)).replay_streaming_observed(
            &bundle,
            &completed,
            &telemetry,
            |record| streamed.push(record.rank),
        );
        assert_eq!(streamed, (26..=40).collect::<Vec<u64>>());
        assert_eq!(funnel.attempted, 15);
        assert_eq!(telemetry.completed(), 15);
        std::fs::remove_dir_all(&dir).ok();
    }
}
