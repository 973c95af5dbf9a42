//! Table 3: top external embedded-document sites.

use std::collections::BTreeMap;

use crawler::CrawlDataset;
use serde::{Deserialize, Serialize};

use crate::intern::{intern, resolve, Sym};
use crate::table::TextTable;
use crate::view::{fold_dataset, RecordView};

/// One Table 3 row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmbedRow {
    /// Embedded document site (registrable domain).
    pub site: String,
    /// Number of websites including it at least once.
    pub websites: u64,
}

/// Table 3 result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EmbedStats {
    /// Rows sorted by website count, descending.
    pub rows: Vec<EmbedRow>,
    /// Websites including *any* external embedded document.
    pub total_any: u64,
}

/// Streaming accumulator behind [`top_external_embeds`]: the unsorted
/// per-site tallies keyed by interned [`Sym`], ready to fold one record
/// at a time — without cloning a site string per record — and merge
/// across shard partitions.
#[derive(Debug, Clone, Default)]
pub struct EmbedAcc {
    per_site: BTreeMap<Sym, u64>,
    total_any: u64,
}

impl EmbedAcc {
    /// Folds one record (successes only).
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        let mut any = false;
        for site in view.external_sites(|frame, _| !frame.is_local_document) {
            any = true;
            *self.per_site.entry(intern(site)).or_default() += 1;
        }
        if any {
            self.total_any += 1;
        }
    }

    /// Merges an accumulator folded over another partition.
    pub fn merge(&mut self, other: EmbedAcc) {
        self.total_any += other.total_any;
        for (site, count) in other.per_site {
            *self.per_site.entry(site).or_default() += count;
        }
    }

    /// Finalizes into the ranked [`EmbedStats`]. Symbols resolve back
    /// to site strings here, and the sort is total-order (count desc,
    /// then site asc), so neither fold order nor interner assignment
    /// order ever shows.
    pub fn finish(self) -> EmbedStats {
        let mut rows: Vec<EmbedRow> = self
            .per_site
            .into_iter()
            .map(|(site, websites)| EmbedRow {
                site: resolve(site).to_string(),
                websites,
            })
            .collect();
        rows.sort_by(|a, b| b.websites.cmp(&a.websites).then(a.site.cmp(&b.site)));
        EmbedStats {
            rows,
            total_any: self.total_any,
        }
    }
}

/// Computes the external-embed census.
pub fn top_external_embeds(dataset: &CrawlDataset) -> EmbedStats {
    fold_dataset::<EmbedAcc>(dataset)
}

impl EmbedStats {
    /// Renders the top `n` rows as Table 3.
    pub fn table(&self, n: usize) -> TextTable {
        let mut t = TextTable::new(
            "Table 3: Top External Embedded Documents Site",
            &["Embedded Document Site", "# Websites including"],
        );
        for row in self.rows.iter().take(n) {
            t.row(vec![row.site.clone(), row.websites.to_string()]);
        }
        t.row(vec![
            "Total (any site)".to_string(),
            self.total_any.to_string(),
        ]);
        t
    }

    /// Website count for one site.
    pub fn count(&self, site: &str) -> u64 {
        self.rows
            .iter()
            .find(|r| r.site == site)
            .map(|r| r.websites)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::{CrawlConfig, Crawler};
    use webgen::{PopulationConfig, WebPopulation};

    #[test]
    fn table3_shape() {
        let pop = WebPopulation::new(PopulationConfig {
            seed: 7,
            size: 4_000,
        });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let stats = top_external_embeds(&dataset);
        // Google dominates; youtube / ads / facebook / livechat all rank.
        assert_eq!(stats.rows[0].site, "google.com");
        let top: Vec<&str> = stats
            .rows
            .iter()
            .take(10)
            .map(|r| r.site.as_str())
            .collect();
        for expected in ["youtube.com", "facebook.com", "livechatinc.com"] {
            assert!(top.contains(&expected), "top10 = {top:?}");
        }
        // The ratio google:livechat should resemble 53,227:13,776 ≈ 3.9.
        let ratio = stats.count("google.com") as f64 / stats.count("livechatinc.com") as f64;
        assert!((2.0..7.0).contains(&ratio), "ratio = {ratio}");
        assert!(stats.total_any > 0);
        assert!(stats.table(10).render().contains("google.com"));
    }
}
