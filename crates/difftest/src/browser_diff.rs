//! End-to-end engine differential: crawled origins, visited by the
//! browser on the shipping engine and on the referee.
//!
//! [`crate::jsdiff`] compares the two engines on generated scripts; this
//! module compares them where the measurement happens. Each origin of a
//! seeded population is visited twice over the crawler's fault-free
//! network stack (a `CachingNetwork` over `SimNetwork`): once by
//! `Browser::new`, which runs [`jsland::ScriptEngine`] like every crawl,
//! and once by a browser built on [`jsland::reference::Interpreter`].
//! The two serialized visits must be equal. Interaction mode is the
//! stronger pass: the CLI crawl never runs it, and it fires every
//! registered handler on the page's step pool.

use browser::{Browser, BrowserConfig};
use crawler::CrawlConfig;
use jsland::reference::Interpreter;
use netsim::{CachingNetwork, SimClock, SimNetwork};
use webgen::{PopulationConfig, WebPopulation};

use crate::replay::encode_visit;

/// One origin whose visits differ between the engines.
#[derive(Debug, Clone)]
pub struct EngineDivergence {
    /// Population rank of the origin.
    pub rank: u64,
    /// Both serialized visits.
    pub detail: String,
}

impl std::fmt::Display for EngineDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {}: {}", self.rank, self.detail)
    }
}

/// Outcome of one [`compare_engines`] pass.
#[derive(Debug)]
pub struct EngineReport {
    /// Origins visited on both engines.
    pub visits: u64,
    /// Frames the shipping engine's visits loaded.
    pub frames: u64,
    /// Scripts those frames collected.
    pub scripts: u64,
    /// Divergences, in rank order. Must be empty.
    pub divergences: Vec<EngineDivergence>,
}

/// Visits ranks `1..=size` of the `seed` population on both engines
/// under `config` and reports every origin whose visits differ.
pub fn compare_engines(seed: u64, size: u64, config: &BrowserConfig) -> EngineReport {
    let population = WebPopulation::new(PopulationConfig { seed, size });
    let network = || {
        CachingNetwork::new(
            SimNetwork::new(&population),
            CrawlConfig::default().cache_capacity,
        )
    };
    let mut report = EngineReport {
        visits: 0,
        frames: 0,
        scripts: 0,
        divergences: Vec::new(),
    };
    for rank in 1..=size {
        let origin = population.origin(rank);
        let shipped = Browser::new(network(), config.clone()).visit(&origin, &mut SimClock::new());
        let referee = Browser::<_, Interpreter>::with_engine(network(), config.clone())
            .visit(&origin, &mut SimClock::new());
        if let Ok(visit) = &shipped {
            report.frames += visit.frames.len() as u64;
            report.scripts += visit
                .frames
                .iter()
                .map(|f| f.scripts.len() as u64)
                .sum::<u64>();
        }
        let (shipped, referee) = (encode_visit(shipped), encode_visit(referee));
        if shipped != referee {
            report.divergences.push(EngineDivergence {
                rank,
                detail: format!("ScriptEngine: {shipped}\nreferee: {referee}"),
            });
        }
        report.visits += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_engines_agree(size: u64) {
        for interaction in [false, true] {
            let config = BrowserConfig {
                interaction,
                ..BrowserConfig::default()
            };
            let report = compare_engines(7, size, &config);
            assert_eq!(report.visits, size);
            assert!(report.scripts > 0, "the pass ran no scripts");
            assert!(
                report.divergences.is_empty(),
                "interaction {interaction}: {} of {size} origins diverge; first: {}",
                report.divergences.len(),
                report.divergences[0]
            );
        }
    }

    #[test]
    fn engines_agree_on_crawled_origins() {
        assert_engines_agree(1_000);
    }

    #[test]
    #[ignore = "CI-scale; run with --ignored in release"]
    fn ci_engines_agree_on_seed7_20k() {
        assert_engines_agree(20_000);
    }
}
