//! Record/replay as a determinism oracle.
//!
//! The bundle store's contract is that a recorded visit replays
//! byte-identically with the content generator never consulted. This
//! module turns that contract into a differential gate over the
//! scenario space: each seeded frame-tree scenario is rendered to a
//! simulated page, loaded once through a [`RecordingNetwork`] whose
//! tape lands in a real on-disk content-addressed bundle store, then
//! loaded again with a [`ReplayNetwork`] served purely from the store.
//! The two [`browser::PageVisit`]s must serialize identically — any
//! drift in the capture layer, the store codec, or replay scheduling
//! shows up as a divergence naming the scenario that found it.

use std::path::Path;

use browser::Browser;
use crawler::{BundleMeta, BundleRecorder, CrawlConfig, ReplayBundle, SiteBundle};
use netsim::{RecordingNetwork, ReplayNetwork, SimClock, SimNetwork, TapeHandle};

use crate::browser_exec::{normalize, scenario_page};
use crate::scenario::Scenario;

/// One record/replay disagreement.
#[derive(Debug, Clone)]
pub struct ReplayDivergence {
    /// The scenario index that diverged.
    pub index: u64,
    /// Serialized live and replayed visits (or load failure).
    pub detail: String,
}

impl std::fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario {}: {}", self.index, self.detail)
    }
}

/// Outcome of one [`replay_scenarios`] session.
#[derive(Debug)]
pub struct ReplayReport {
    /// Scenarios recorded and replayed.
    pub scenarios: u64,
    /// Divergences, in scenario order. Must be empty.
    pub divergences: Vec<ReplayDivergence>,
}

/// A visit result flattened to a comparable string: the full serialized
/// record on success, the structured error otherwise.
pub(crate) fn encode_visit(visit: Result<browser::PageVisit, browser::VisitError>) -> String {
    match visit {
        Ok(visit) => serde_json::to_string(&visit).expect("visit serializes"),
        Err(e) => format!("visit error: {e:?}"),
    }
}

/// Records `count` scenarios generated under `variant_seed` (systematic
/// first, randomized past [`Scenario::systematic_count`]) into a fresh
/// bundle store at `dir`, replays every one from the store, and reports
/// divergences. Rank `i + 1` holds scenario index `i`.
pub fn replay_scenarios(
    dir: &Path,
    count: u64,
    variant_seed: u64,
) -> std::io::Result<ReplayReport> {
    // The store's provenance header: scenario sessions are not crawls,
    // so the config is the default and the seed doubles as the variant.
    let meta = BundleMeta::for_crawl(&CrawlConfig::default(), variant_seed, count, false);
    let recorder = BundleRecorder::create(dir, &meta)?;
    let mut live = Vec::with_capacity(count as usize);
    for index in 0..count {
        let scenario = normalize(&Scenario::generate(index, variant_seed));
        let (top_url, provider, config) = scenario_page(&scenario);
        let handle = TapeHandle::new();
        let network = RecordingNetwork::new(SimNetwork::new(provider), handle.clone());
        let mut browser = Browser::new(network, config);
        let mut clock = SimClock::new();
        let visit = browser.visit(&top_url, &mut clock);
        recorder.submit(SiteBundle {
            rank: index + 1,
            origin: top_url.to_string(),
            synthesized: false,
            attempts: vec![handle.take()],
        })?;
        live.push(encode_visit(visit));
    }
    let recorded = recorder.finish()?;
    assert_eq!(recorded, count, "every scenario must be captured");

    let bundle = ReplayBundle::load(dir)?;
    let mut divergences = Vec::new();
    for index in 0..count {
        let scenario = normalize(&Scenario::generate(index, variant_seed));
        // Rebuild the page shape for the URL and config only; the
        // provider is dropped unused — replay must not consult it.
        let (top_url, _provider, config) = scenario_page(&scenario);
        let rank = index + 1;
        let Some(tape) = bundle.tape(rank, 0) else {
            divergences.push(ReplayDivergence {
                index,
                detail: format!("bundle store has no tape for rank {rank}"),
            });
            continue;
        };
        let mut browser = Browser::new(ReplayNetwork::new(tape), config);
        let mut clock = SimClock::new();
        let replayed = encode_visit(browser.visit(&top_url, &mut clock));
        if replayed != live[index as usize] {
            divergences.push(ReplayDivergence {
                index,
                detail: format!("live: {}\nreplayed: {replayed}", live[index as usize]),
            });
        }
    }
    Ok(ReplayReport {
        scenarios: count,
        divergences,
    })
}
