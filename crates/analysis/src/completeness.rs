//! Data-completeness census: which visits are complete, which degraded,
//! which truncated — the reproducibility accounting the degradation
//! events make possible (every partial visit is marked, so the analysis
//! population's coverage is a measured quantity, not an assumption).

use std::collections::BTreeMap;

use browser::Completeness;
use crawler::CrawlDataset;

use crate::table::{pct, TextTable};
use crate::view::{fold_dataset, RecordView};

/// Completeness counts over all data-producing visits (any outcome),
/// plus a per-kind breakdown of the degradation events behind them.
#[derive(Debug, Clone, Default)]
pub struct CompletenessCensus {
    /// Records that produced a visit at all.
    pub visits: u64,
    /// Visits with no degradation events.
    pub complete: u64,
    /// Visits with events but no dropped structure.
    pub degraded: u64,
    /// Visits where at least one truncating cap dropped structure.
    pub truncated: u64,
    /// Total degradation events.
    pub events: u64,
    /// Event counts by kind label, sorted.
    pub by_kind: BTreeMap<&'static str, u64>,
}

impl CompletenessCensus {
    /// Renders the census as a table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new("Data completeness census", &["Metric", "Value"]);
        t.row(vec!["visits with data".into(), self.visits.to_string()]);
        t.row(vec![
            "complete".into(),
            format!("{} ({})", self.complete, pct(self.complete, self.visits)),
        ]);
        t.row(vec![
            "degraded".into(),
            format!("{} ({})", self.degraded, pct(self.degraded, self.visits)),
        ]);
        t.row(vec![
            "truncated".into(),
            format!("{} ({})", self.truncated, pct(self.truncated, self.visits)),
        ]);
        t.row(vec!["degradation events".into(), self.events.to_string()]);
        for (kind, count) in &self.by_kind {
            t.row(vec![format!("  {kind}"), count.to_string()]);
        }
        t
    }
}

impl CompletenessCensus {
    /// Folds one record into the census. Unlike the success-only tables
    /// this sees every visit: a degraded excluded visit still counts.
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        let Some(visit) = &view.record().visit else {
            return;
        };
        self.visits += 1;
        match visit.completeness() {
            Completeness::Complete => self.complete += 1,
            Completeness::Degraded => self.degraded += 1,
            Completeness::Truncated => self.truncated += 1,
        }
        for event in &visit.degradations {
            self.events += 1;
            *self.by_kind.entry(event.kind.label()).or_insert(0) += 1;
        }
    }

    /// Merges a census folded over another partition of the dataset.
    pub fn merge(&mut self, other: CompletenessCensus) {
        self.visits += other.visits;
        self.complete += other.complete;
        self.degraded += other.degraded;
        self.truncated += other.truncated;
        self.events += other.events;
        for (kind, count) in other.by_kind {
            *self.by_kind.entry(kind).or_insert(0) += count;
        }
    }
}

/// Computes the completeness census over every visit in the dataset
/// (not just successes: a degraded excluded visit is still accounting).
pub fn data_completeness(dataset: &CrawlDataset) -> CompletenessCensus {
    fold_dataset::<CompletenessCensus>(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::{CrawlConfig, Crawler};
    use webgen::{PopulationConfig, WebPopulation};

    #[test]
    fn baseline_population_is_fully_complete() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 400 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let census = data_completeness(&dataset);
        assert!(census.visits > 300);
        assert_eq!(census.complete, census.visits);
        assert_eq!(census.events, 0);
        assert!(census.table().render().contains("complete"));
    }

    #[test]
    fn adversarial_population_shows_degradation() {
        let pop =
            WebPopulation::new(PopulationConfig { seed: 7, size: 400 }).with_adversarial(true);
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let census = data_completeness(&dataset);
        assert!(census.degraded + census.truncated > 0);
        assert!(census.events > 0);
        assert!(!census.by_kind.is_empty());
        let rendered = census.table().render();
        assert!(rendered.contains("degradation events"));
    }
}
