//! Appendix A.3 / Table 12: validating the static method against
//! interaction.
//!
//! The paper's manual experiment, automated: for a set of sites, compare
//! the permissions reported by (a) static analysis without interaction,
//! (b) dynamic analysis without interaction, and (c) dynamic analysis
//! *with* interaction (clicking handlers, navigating same-origin paths) —
//! the stand-in for the human tester. Detection rates are then "how much
//! of the interaction-activated set the no-interaction methods already
//! saw".

use std::collections::BTreeSet;

use browser::BrowserConfig;
use crawler::{CrawlConfig, Crawler, SiteOutcome};
use registry::Permission;
use serde::{Deserialize, Serialize};
use webgen::WebPopulation;

use crate::table::TextTable;

/// Per-site permission sets from the three measurement modes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SiteDetection {
    /// Rank of the site.
    pub rank: u64,
    /// Static findings, no interaction.
    pub static_found: BTreeSet<Permission>,
    /// Dynamic findings, no interaction.
    pub dynamic_found: BTreeSet<Permission>,
    /// Dynamic findings with interaction + same-origin navigation.
    pub activated: BTreeSet<Permission>,
}

/// One Table 12 experiment row.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InteractionExperiment {
    /// Experiment label.
    pub label: String,
    /// Number of sites.
    pub sites: usize,
    /// Average permissions reported statically (no interaction).
    pub avg_static: f64,
    /// Average permissions reported dynamically (no interaction).
    pub avg_dynamic: f64,
    /// Average permissions activated with interaction.
    pub avg_activated: f64,
    /// Share of activated permissions already caught by static analysis.
    pub detected_by_static: f64,
    /// Share caught by static ∪ dynamic.
    pub detected_by_union: f64,
}

/// Measures one site in all three modes.
pub fn measure_site(population: &WebPopulation, rank: u64) -> Option<SiteDetection> {
    let plain = Crawler::new(CrawlConfig::default());
    let record = plain.visit_one(population, rank);
    if record.outcome != SiteOutcome::Success {
        return None;
    }
    let visit = record.visit.as_ref()?;
    let mut detection = SiteDetection {
        rank,
        ..SiteDetection::default()
    };
    for frame in &visit.frames {
        for script in &frame.scripts {
            detection
                .static_found
                .extend(staticscan::scan_permissions(&script.source));
        }
        for inv in &frame.invocations {
            detection
                .dynamic_found
                .extend(inv.permissions.iter().copied());
        }
    }
    let interactive = Crawler::new(CrawlConfig {
        navigate_links: 2,
        browser: BrowserConfig {
            interaction: true,
            ..BrowserConfig::default()
        },
        ..CrawlConfig::default()
    });
    let record = interactive.visit_one(population, rank);
    if let Some(visit) = &record.visit {
        for frame in &visit.frames {
            for inv in &frame.invocations {
                detection.activated.extend(inv.permissions.iter().copied());
            }
        }
    }
    Some(detection)
}

/// Streaming accumulator behind [`interaction_study`]: integer tallies
/// over [`SiteDetection`] items; every average and detection rate is
/// derived only at [`InteractionAcc::finish`], so partial studies merge
/// without touching the result.
#[derive(Debug, Clone, Copy, Default)]
pub struct InteractionAcc {
    sites: u64,
    static_sum: u64,
    dynamic_sum: u64,
    activated_sum: u64,
    activated_total: u64,
    by_static: u64,
    by_union: u64,
}

impl InteractionAcc {
    /// Folds one site's three-mode detection sets.
    pub fn fold(&mut self, d: &SiteDetection) {
        self.sites += 1;
        self.static_sum += d.static_found.len() as u64;
        self.dynamic_sum += d.dynamic_found.len() as u64;
        self.activated_sum += d.activated.len() as u64;
        for p in &d.activated {
            self.activated_total += 1;
            if d.static_found.contains(p) {
                self.by_static += 1;
            }
            if d.static_found.contains(p) || d.dynamic_found.contains(p) {
                self.by_union += 1;
            }
        }
    }

    /// Merges tallies folded over another site selection.
    pub fn merge(&mut self, other: InteractionAcc) {
        self.sites += other.sites;
        self.static_sum += other.static_sum;
        self.dynamic_sum += other.dynamic_sum;
        self.activated_sum += other.activated_sum;
        self.activated_total += other.activated_total;
        self.by_static += other.by_static;
        self.by_union += other.by_union;
    }

    /// Finalizes into a labelled Table 12 row.
    pub fn finish(self, label: &str) -> InteractionExperiment {
        let n = self.sites.max(1) as f64;
        let rate = |part: u64| {
            if self.activated_total == 0 {
                0.0
            } else {
                part as f64 / self.activated_total as f64
            }
        };
        InteractionExperiment {
            label: label.to_string(),
            sites: self.sites as usize,
            avg_static: self.static_sum as f64 / n,
            avg_dynamic: self.dynamic_sum as f64 / n,
            avg_activated: self.activated_sum as f64 / n,
            detected_by_static: rate(self.by_static),
            detected_by_union: rate(self.by_union),
        }
    }
}

/// Runs one experiment over a site selection.
pub fn interaction_study(
    population: &WebPopulation,
    label: &str,
    ranks: &[u64],
) -> InteractionExperiment {
    let mut acc = InteractionAcc::default();
    for &rank in ranks {
        if let Some(detection) = measure_site(population, rank) {
            acc.fold(&detection);
        }
    }
    acc.finish(label)
}

/// Selects sites that have static findings but no dynamic activity — the
/// paper's first experiment population.
pub fn select_static_only_sites(
    population: &WebPopulation,
    want: usize,
    scan_limit: u64,
) -> Vec<u64> {
    let crawler = Crawler::new(CrawlConfig::default());
    let mut out = Vec::new();
    for rank in 1..=scan_limit {
        if out.len() >= want {
            break;
        }
        let record = crawler.visit_one(population, rank);
        let Some(visit) = &record.visit else { continue };
        if record.outcome != SiteOutcome::Success {
            continue;
        }
        let has_dynamic = visit
            .frames
            .iter()
            .any(|f| f.invocations.iter().any(|i| !i.permissions.is_empty()));
        if has_dynamic {
            continue;
        }
        let has_static = visit.frames.iter().any(|f| {
            f.scripts
                .iter()
                .any(|s| !staticscan::scan_permissions(&s.source).is_empty())
        });
        if has_static {
            out.push(rank);
        }
    }
    out
}

/// Renders Table 12 from a set of experiments.
pub fn table12(experiments: &[InteractionExperiment]) -> TextTable {
    let mut t = TextTable::new(
        "Table 12: Manual Testing of Average Permission Detection Across Experiments",
        &[
            "Experiment",
            "#",
            "Static",
            "Dynamic",
            "Activated",
            "by Static",
            "by S∪D",
        ],
    );
    for e in experiments {
        t.row(vec![
            e.label.clone(),
            e.sites.to_string(),
            format!("{:.2}", e.avg_static),
            format!("{:.2}", e.avg_dynamic),
            format!("{:.2}", e.avg_activated),
            format!("{:.2}%", e.detected_by_static * 100.0),
            format!("{:.2}%", e.detected_by_union * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use webgen::PopulationConfig;

    #[test]
    fn interaction_activates_more_than_plain_dynamic() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 600 });
        let ranks: Vec<u64> = (1..=120).collect();
        let exp = interaction_study(&pop, "random", &ranks);
        assert!(exp.sites > 60);
        // Interaction activates at least as much as the no-interaction run.
        assert!(exp.avg_activated >= exp.avg_dynamic);
        // Static reports more than no-interaction dynamic (the paper's
        // consistent finding across all three experiments).
        assert!(exp.avg_static > exp.avg_dynamic, "{exp:?}");
        // Static catches a meaningful share of activated permissions.
        assert!(exp.detected_by_static > 0.3, "{exp:?}");
        assert!(exp.detected_by_union >= exp.detected_by_static);
    }

    #[test]
    fn static_only_selection_has_no_dynamic() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 600 });
        let ranks = select_static_only_sites(&pop, 10, 400);
        assert!(!ranks.is_empty());
        let crawler = Crawler::new(CrawlConfig::default());
        for rank in &ranks {
            let record = crawler.visit_one(&pop, *rank);
            let visit = record.visit.unwrap();
            assert!(visit
                .frames
                .iter()
                .all(|f| f.invocations.iter().all(|i| i.permissions.is_empty())));
        }
    }

    #[test]
    fn table12_renders() {
        let exp = InteractionExperiment {
            label: "Static-Only".into(),
            sites: 25,
            avg_static: 1.84,
            avg_dynamic: 0.04,
            avg_activated: 1.08,
            detected_by_static: 0.6296,
            detected_by_union: 0.6296,
        };
        let text = table12(&[exp]).render();
        assert!(text.contains("Static-Only"));
        assert!(text.contains("62.96%"));
    }
}
