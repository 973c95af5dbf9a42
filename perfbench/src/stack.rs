//! The visit stack composed from its public seams, for the traced run.
//!
//! `crawler::job_start` and `Crawler::replay_streaming_observed` hide
//! their internals, so the traced run drives the same layers itself:
//! the population as a `ContentProvider` under `SimNetwork` (or a
//! `ReplayNetwork` over a recorded tape), a `CachingNetwork`, and
//! `Browser::visit`, inside the same retry loop and panic isolation as
//! `Crawler::visit_one`. Every seam opens a span. The run checks each
//! composed record against the crawler's own for the same rank.
//!
//! The html, policy and jsland probes re-run each layer's public
//! function on the inputs a visit used: the HTML bodies captured at the
//! browser's network seam, and the headers, `allow` attributes and
//! scripts the visit recorded.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use browser::{Browser, PageVisit, ScriptOutcome, VisitError, VisitOutcome};
use crawler::{CrawlConfig, ReplayBundle, SiteBundle, SiteOutcome, SiteRecord};
use netsim::{
    CachingNetwork, ContentProvider, FaultyNetwork, FetchError, Network, ProviderResult,
    RecordingNetwork, ReplayNetwork, Response, SimClock, SimNetwork, TapeHandle,
};
use webgen::WebPopulation;
use weburl::Url;

use crate::trace::Tracer;

/// Counts taken at the seams while visiting.
#[derive(Default)]
pub struct SeamCounts {
    /// `ContentProvider::resolve` calls.
    pub resolves: Cell<u64>,
    /// `Network::fetch` calls the browser made.
    pub fetches: Cell<u64>,
    /// `CachingNetwork` hits.
    pub cache_hits: Cell<u64>,
    /// `CachingNetwork` misses.
    pub cache_misses: Cell<u64>,
    /// Visit attempts that panicked and were isolated.
    pub panics: Cell<u64>,
    /// Responses the browser received during the current rank.
    pub captured: RefCell<Vec<Response>>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

/// The population as a content provider, one span per resolve.
struct TracedProvider<'a> {
    population: &'a WebPopulation,
    tracer: &'a Tracer,
    counts: &'a SeamCounts,
}

impl ContentProvider for TracedProvider<'_> {
    fn resolve(&self, url: &Url) -> ProviderResult {
        bump(&self.counts.resolves, 1);
        self.tracer
            .span("webgen.resolve", || self.population.resolve(url))
    }
}

/// A network wrapper that opens a span named `name` around each call
/// and, when `capture` is set, keeps what the browser received.
struct TracedNetwork<'a, N> {
    inner: N,
    name: &'static str,
    tracer: &'a Tracer,
    counts: &'a SeamCounts,
    capture: bool,
}

impl<N: Network> Network for TracedNetwork<'_, N> {
    fn fetch(&mut self, url: &Url, clock: &mut SimClock) -> Result<Response, FetchError> {
        let inner = &mut self.inner;
        let result = self.tracer.span(self.name, || inner.fetch(url, clock));
        if self.capture {
            bump(&self.counts.fetches, 1);
            if let Ok(response) = &result {
                self.tracer.span("trace.capture", || {
                    self.counts.captured.borrow_mut().push(response.clone())
                });
            }
        }
        result
    }

    fn post_fetch_failure(&self, url: &Url) -> Option<FetchError> {
        self.tracer
            .span(self.name, || self.inner.post_fetch_failure(url))
    }
}

/// One rank visited live through the composed stack.
pub fn live_visit(
    config: &CrawlConfig,
    population: &WebPopulation,
    rank: u64,
    tracer: &Tracer,
    counts: &SeamCounts,
) -> SiteRecord {
    let origin = population.origin(rank);
    let provider = TracedProvider {
        population,
        tracer,
        counts,
    };
    visit_loop(config, rank, &origin, tracer, counts, |attempt| {
        FaultyNetwork::new(SimNetwork::new(&provider), &config.faults, rank, attempt)
    })
}

/// One rank visited live while recording every exchange, as a
/// recording crawl does; returns the record and the bundle to submit.
pub fn recording_visit(
    config: &CrawlConfig,
    population: &WebPopulation,
    rank: u64,
    tracer: &Tracer,
    counts: &SeamCounts,
) -> (SiteRecord, SiteBundle) {
    let origin = population.origin(rank);
    let provider = TracedProvider {
        population,
        tracer,
        counts,
    };
    let mut handles: Vec<TapeHandle> = Vec::new();
    let record = visit_loop(config, rank, &origin, tracer, counts, |attempt| {
        let handle = TapeHandle::new();
        handles.push(handle.clone());
        RecordingNetwork::new(
            FaultyNetwork::new(SimNetwork::new(&provider), &config.faults, rank, attempt),
            handle,
        )
    });
    let bundle = SiteBundle {
        rank,
        origin: origin.to_string(),
        synthesized: false,
        attempts: handles.iter().map(TapeHandle::take).collect(),
    };
    (record, bundle)
}

/// One rank replayed from a recorded store through the composed stack.
pub fn replay_visit(
    config: &CrawlConfig,
    bundle: &ReplayBundle,
    rank: u64,
    tracer: &Tracer,
    counts: &SeamCounts,
) -> SiteRecord {
    let manifest = bundle
        .manifest(rank)
        .unwrap_or_else(|| panic!("the bundle store has no manifest for rank {rank}"));
    if manifest.synthesized {
        return SiteRecord {
            rank,
            origin: manifest.origin.clone(),
            outcome: SiteOutcome::CrawlerError,
            visit: None,
            elapsed_ms: 0,
            attempts: 0,
        };
    }
    let origin = Url::parse(&manifest.origin)
        .unwrap_or_else(|e| panic!("recorded origin {:?} unparseable: {e:?}", manifest.origin));
    visit_loop(config, rank, &origin, tracer, counts, |attempt| {
        let tape = tracer
            .span("netsim.replay", || bundle.tape(rank, attempt as usize))
            .unwrap_or_else(|| panic!("rank {rank} has no recorded attempt {attempt}"));
        TracedNetwork {
            inner: ReplayNetwork::new(tape),
            name: "netsim.replay",
            tracer,
            counts,
            capture: false,
        }
    })
}

/// `Crawler::visit_one`'s retry loop: attempts until the outcome is
/// final, retrying transient failures with backoff on the simulated
/// clock.
fn visit_loop<N: Network>(
    config: &CrawlConfig,
    rank: u64,
    origin: &Url,
    tracer: &Tracer,
    counts: &SeamCounts,
    mut network_for: impl FnMut(u32) -> N,
) -> SiteRecord {
    assert_eq!(
        config.navigate_links, 0,
        "the composed stack has no interaction-mode navigation"
    );
    let mut clock = SimClock::new();
    let mut attempts: u32 = 0;
    let (outcome, visit) = loop {
        let network = network_for(attempts);
        let (outcome, visit) = drive_attempt(config, network, origin, &mut clock, tracer, counts);
        attempts += 1;
        let transient = matches!(outcome, SiteOutcome::Unreachable | SiteOutcome::LoadTimeout);
        if transient && attempts <= config.max_retries {
            clock.advance(netsim::capped_backoff_ms(config.retry_backoff_ms, attempts));
            continue;
        }
        break (outcome, visit);
    };
    SiteRecord {
        rank,
        origin: origin.to_string(),
        outcome,
        visit,
        elapsed_ms: clock.now_ms(),
        attempts,
    }
}

/// One visit attempt in panic isolation, with the response cache
/// layered over `inner` as the crawler layers it.
fn drive_attempt<N: Network>(
    config: &CrawlConfig,
    inner: N,
    origin: &Url,
    clock: &mut SimClock,
    tracer: &Tracer,
    counts: &SeamCounts,
) -> (SiteOutcome, Option<PageVisit>) {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let network = TracedNetwork {
            inner: CachingNetwork::new(inner, config.cache_capacity),
            name: "netsim.fetch",
            tracer,
            counts,
            capture: true,
        };
        let mut browser = Browser::new(network, config.browser.clone());
        let visited = tracer.span("browser.visit", || browser.visit(origin, clock));
        let cache = browser.into_network().inner;
        bump(&counts.cache_hits, cache.hits());
        bump(&counts.cache_misses, cache.misses());
        match visited {
            Ok(visit) => {
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
        }
    }));
    attempt.unwrap_or_else(|_| {
        bump(&counts.panics, 1);
        (SiteOutcome::CrawlerError, None)
    })
}

/// Counts the html, policy and jsland probes take.
#[derive(Default)]
pub struct ProbeCounts {
    /// Frames across probed visits.
    pub frames: u64,
    /// Script records across probed visits.
    pub scripts: u64,
    /// Degradation events across probed visits.
    pub degradations: u64,
    /// Scripts the jsland probe executed.
    pub executed: u64,
    /// Distinct sources among them.
    pub distinct: HashSet<u64>,
    /// Inline-cache hits and misses of the probe's engines.
    pub ic_hits: u64,
    /// See `ic_hits`.
    pub ic_misses: u64,
}

/// Whether the browser ran a script that ended with `outcome` (fetch
/// failures and byte-capped scripts never run).
fn was_executed(outcome: ScriptOutcome) -> bool {
    !matches!(
        outcome,
        ScriptOutcome::FetchFailed | ScriptOutcome::BytesCapped
    )
}

/// Re-runs `html::scan` over every HTML body the browser received, the
/// policy parsers over every frame's headers and `allow` attribute, and
/// the default script engine over every script the visit executed.
///
/// The VM's front-end memo is warm here: the visit just compiled the
/// same sources on this thread, so `jsland.run` times execution, not
/// compilation. Inline event-handler attributes, which the browser
/// records but does not run outside interaction mode, are left out by
/// re-scanning the frame's document; frames without a fetched document
/// (`srcdoc`) keep them. Frames sandboxed without `allow-scripts` run
/// nothing. Hooks are `jsland::RecordingHooks`, not the browser's
/// policy-aware hooks.
pub fn probe(
    visit: Option<&PageVisit>,
    captured: &[Response],
    tracer: &Tracer,
    budget_steps: u64,
    counts: &mut ProbeCounts,
) {
    let mut handlers_by_url: std::collections::HashMap<String, usize> = Default::default();
    for response in captured {
        let is_html = response
            .header("content-type")
            .is_some_and(|t| t.starts_with("text/html"));
        if !is_html {
            continue;
        }
        let text = response.body_text();
        let document = tracer.span("html.scan", || html::scan(&text));
        handlers_by_url.insert(response.final_url.to_string(), document.handlers.len());
    }
    let Some(visit) = visit else { return };
    counts.frames += visit.frames.len() as u64;
    counts.degradations += visit.degradations.len() as u64;
    let mut pool = jsland::StepPool::limited(budget_steps);
    for frame in &visit.frames {
        counts.scripts += frame.scripts.len() as u64;
        tracer.span("policy.parse", || {
            if let Some(pp) = &frame.permissions_policy_header {
                let _ = std::hint::black_box(policy::header::parse_permissions_policy(pp));
            }
            if let Some(fp) = &frame.feature_policy_header {
                std::hint::black_box(policy::feature_policy::parse_feature_policy(fp));
            }
            if let Some(allow) = frame.iframe_attrs.as_ref().and_then(|a| a.allow.as_ref()) {
                std::hint::black_box(policy::parse_allow_attribute(allow));
            }
        });
        let sandboxed = frame
            .iframe_attrs
            .as_ref()
            .and_then(|a| a.sandbox.as_deref())
            .is_some_and(|s| {
                !s.split_ascii_whitespace()
                    .any(|t| t.eq_ignore_ascii_case("allow-scripts"))
            });
        if sandboxed {
            continue;
        }
        let handlers = frame
            .url
            .as_ref()
            .and_then(|u| handlers_by_url.get(u))
            .copied()
            .unwrap_or(0);
        let runnable = frame.scripts.len().saturating_sub(handlers);
        let mut engine = jsland::ScriptEngine::new(jsland::ExecEngine::default());
        let mut hooks = jsland::RecordingHooks::default();
        for script in &frame.scripts[..runnable] {
            if !was_executed(script.outcome) {
                continue;
            }
            counts.executed += 1;
            counts
                .distinct
                .insert(crate::sys::fingerprint(script.source.as_bytes()));
            let source = match &script.url {
                Some(url) => jsland::ScriptSource::external(url.clone()),
                None => jsland::ScriptSource::inline(),
            };
            let _ = tracer.span("jsland.run", || {
                engine.run_pooled(&script.source, source, &mut hooks, &mut pool)
            });
        }
        let (hits, misses) = engine.ic_stats();
        counts.ic_hits += hits;
        counts.ic_misses += misses;
    }
}
