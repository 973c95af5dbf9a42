//! Frame census (§4's document accounting).

use crawler::CrawlDataset;
use serde::{Deserialize, Serialize};

use crate::table::{pct, TextTable};
use crate::view::{fold_dataset, RecordView};

/// Document-level counts over successful visits.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct FrameCensus {
    /// Successful websites.
    pub websites: u64,
    /// All collected documents.
    pub frames: u64,
    /// Top-level documents (initial loads; redirects add more in the
    /// paper's accounting — here redirects resolve to one final doc, and
    /// the redirect share is reported separately).
    pub top_level: u64,
    /// Embedded documents.
    pub embedded: u64,
    /// Embedded documents that are local (no network request/headers).
    pub embedded_local: u64,
    /// Websites containing at least one iframe.
    pub websites_with_iframes: u64,
    /// Direct (depth-1) iframes across all websites.
    pub direct_iframes: u64,
    /// Websites whose visit followed a redirect.
    pub redirected_websites: u64,
}

impl FrameCensus {
    /// Average direct iframes per website that has any.
    pub fn avg_direct_iframes(&self) -> f64 {
        if self.websites_with_iframes == 0 {
            return 0.0;
        }
        self.direct_iframes as f64 / self.websites_with_iframes as f64
    }

    /// Local share of embedded documents (the paper: 54.1%).
    pub fn local_share(&self) -> f64 {
        if self.embedded == 0 {
            return 0.0;
        }
        self.embedded_local as f64 / self.embedded as f64
    }

    /// Renders the census like the §4 prose.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new("Frame census (§4)", &["Metric", "Value"]);
        t.row(vec!["websites".into(), self.websites.to_string()]);
        t.row(vec!["frames".into(), self.frames.to_string()]);
        t.row(vec![
            "top-level documents".into(),
            self.top_level.to_string(),
        ]);
        t.row(vec!["embedded documents".into(), self.embedded.to_string()]);
        t.row(vec![
            "embedded local".into(),
            format!(
                "{} ({})",
                self.embedded_local,
                pct(self.embedded_local, self.embedded)
            ),
        ]);
        t.row(vec![
            "websites with iframes".into(),
            format!(
                "{} ({})",
                self.websites_with_iframes,
                pct(self.websites_with_iframes, self.websites)
            ),
        ]);
        t.row(vec![
            "avg direct iframes".into(),
            format!("{:.1}", self.avg_direct_iframes()),
        ]);
        t.row(vec![
            "redirected websites".into(),
            format!(
                "{} ({})",
                self.redirected_websites,
                pct(self.redirected_websites, self.websites)
            ),
        ]);
        t
    }
}

impl FrameCensus {
    /// Folds one record into the census (success outcomes only).
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        let Some(visit) = view.visit() else { return };
        let record = view.record();
        self.websites += 1;
        let mut direct = 0u64;
        for frame in &visit.frames {
            self.frames += 1;
            if frame.is_top_level {
                self.top_level += 1;
                if frame
                    .url
                    .as_deref()
                    .is_some_and(|u| u != record.origin && !u.starts_with(&record.origin))
                {
                    self.redirected_websites += 1;
                }
            } else {
                self.embedded += 1;
                if frame.is_local_document {
                    self.embedded_local += 1;
                }
                if frame.depth == 1 {
                    direct += 1;
                }
            }
        }
        if direct > 0 {
            self.websites_with_iframes += 1;
            self.direct_iframes += direct;
        }
    }

    /// Merges a census folded over another partition of the dataset.
    pub fn merge(&mut self, other: FrameCensus) {
        self.websites += other.websites;
        self.frames += other.frames;
        self.top_level += other.top_level;
        self.embedded += other.embedded;
        self.embedded_local += other.embedded_local;
        self.websites_with_iframes += other.websites_with_iframes;
        self.direct_iframes += other.direct_iframes;
        self.redirected_websites += other.redirected_websites;
    }
}

/// Computes the census over successful visits.
pub fn frame_census(dataset: &CrawlDataset) -> FrameCensus {
    fold_dataset::<FrameCensus>(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::{CrawlConfig, Crawler};
    use webgen::{PopulationConfig, WebPopulation};

    #[test]
    fn census_shape_matches_paper() {
        let pop = WebPopulation::new(PopulationConfig {
            seed: 7,
            size: 1_500,
        });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let census = frame_census(&dataset);
        assert!(census.websites > 1_000);
        assert_eq!(census.top_level, census.websites);
        // Paper: 66.7% of websites contain iframes; avg 3.2; 54.1% local.
        let iframe_rate = census.websites_with_iframes as f64 / census.websites as f64;
        assert!((0.5..0.8).contains(&iframe_rate), "{iframe_rate}");
        assert!((1.5..5.0).contains(&census.avg_direct_iframes()));
        assert!(
            (0.35..0.7).contains(&census.local_share()),
            "{}",
            census.local_share()
        );
        // Redirect share in the ballpark of the paper's extra top-level
        // docs (1.12M docs / 818k sites ≈ 27% more). We flag ~15%.
        let redirect_rate = census.redirected_websites as f64 / census.websites as f64;
        assert!((0.08..0.25).contains(&redirect_rate), "{redirect_rate}");
        // Rendering works.
        let text = census.table().render();
        assert!(text.contains("websites"));
    }
}
