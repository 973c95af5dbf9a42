//! Prompt-attribution analysis (extension).
//!
//! §2.2.2/§2.2.5: when a delegated powerful permission prompts from an
//! embedded document, the dialog names the *top-level* site — users
//! cannot tell the request comes from a third-party widget. This module
//! measures how often visits would produce prompts at all, and what share
//! of them embedded documents trigger "on behalf of" the top level.

use std::collections::BTreeMap;

use crawler::CrawlDataset;
use registry::{Permission, PermissionSet};
use serde::{Deserialize, Serialize};

use crate::table::{pct, TextTable};
use crate::view::{fold_dataset, RecordView};

/// Per-permission prompt tallies.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PromptRow {
    /// Prompts from top-level documents.
    pub top_level: u64,
    /// Prompts from embedded documents (attributed to the top level).
    pub embedded: u64,
    /// Websites with at least one prompt for this permission.
    pub websites: u64,
}

/// Prompt census.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PromptStats {
    /// Per-permission rows.
    pub rows: BTreeMap<Permission, PromptRow>,
    /// Websites with any prompt.
    pub websites_any: u64,
    /// Websites where an *embedded* document triggers a prompt shown under
    /// the top-level site's name.
    pub websites_embedded_on_behalf: u64,
}

impl PromptStats {
    /// Folds one record (successes only) into the census.
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        let Some(visit) = view.visit() else { return };
        if visit.prompts.is_empty() {
            return;
        }
        self.websites_any += 1;
        let mut site_perms = PermissionSet::EMPTY;
        let mut embedded_on_behalf = false;
        for prompt in &visit.prompts {
            let row = self.rows.entry(prompt.permission).or_default();
            if prompt.from_embedded {
                row.embedded += 1;
                // storage-access prompts name the embedded document, all
                // other powerful permissions name the top level.
                if prompt.permission != Permission::StorageAccess {
                    embedded_on_behalf = true;
                }
            } else {
                row.top_level += 1;
            }
            site_perms.insert(prompt.permission);
        }
        for p in site_perms {
            self.rows.get_mut(&p).unwrap().websites += 1;
        }
        if embedded_on_behalf {
            self.websites_embedded_on_behalf += 1;
        }
    }

    /// Merges tallies folded over another partition of the dataset.
    pub fn merge(&mut self, other: PromptStats) {
        for (p, row) in other.rows {
            let mine = self.rows.entry(p).or_default();
            mine.top_level += row.top_level;
            mine.embedded += row.embedded;
            mine.websites += row.websites;
        }
        self.websites_any += other.websites_any;
        self.websites_embedded_on_behalf += other.websites_embedded_on_behalf;
    }
}

/// Computes the prompt census over successful visits.
pub fn prompt_census(dataset: &CrawlDataset) -> PromptStats {
    fold_dataset::<PromptStats>(dataset)
}

impl PromptStats {
    /// Renders the census.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Prompt attribution (extension): who asks, whose name is shown",
            &[
                "Permission",
                "Top-level",
                "Embedded (on behalf)",
                "# Websites",
            ],
        );
        let mut rows: Vec<_> = self.rows.iter().collect();
        rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.websites));
        for (p, row) in rows {
            t.row(vec![
                p.token().to_string(),
                row.top_level.to_string(),
                row.embedded.to_string(),
                row.websites.to_string(),
            ]);
        }
        t.row(vec![
            "Total".to_string(),
            String::new(),
            format!(
                "{} sites ({})",
                self.websites_embedded_on_behalf,
                pct(self.websites_embedded_on_behalf, self.websites_any.max(1))
            ),
            self.websites_any.to_string(),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::{CrawlConfig, Crawler};
    use webgen::{PopulationConfig, WebPopulation};

    #[test]
    fn prompt_census_shape() {
        let pop = WebPopulation::new(PopulationConfig {
            seed: 7,
            size: 4_000,
        });
        let ds = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let stats = prompt_census(&ds);
        assert!(stats.websites_any > 0);
        // Notification vendors prompt from the top level on many sites.
        let notif = &stats.rows[&Permission::Notifications];
        assert!(notif.top_level > 0);
        // Video-call widgets prompt for capture from embedded frames —
        // shown under the top-level site's name.
        let cam = &stats.rows[&Permission::Camera];
        assert!(cam.embedded > 0);
        assert!(stats.websites_embedded_on_behalf > 0);
        assert!(stats.table().render().contains("on behalf"));
    }

    #[test]
    fn blocked_invocations_never_prompt() {
        // A site with camera=() and a getUserMedia call must not prompt.
        use browser::{Browser, BrowserConfig};
        use netsim::{
            ContentProvider, ProviderResult, Response, SimClock, SimNetwork, SiteBehavior,
        };
        use weburl::Url;
        struct Blocked;
        impl ContentProvider for Blocked {
            fn resolve(&self, url: &Url) -> ProviderResult {
                ProviderResult::Content {
                    response: Response::html(
                        url.clone(),
                        "<script>navigator.mediaDevices.getUserMedia({video: true});</script>",
                    )
                    .with_header("Permissions-Policy", "camera=()"),
                    behavior: SiteBehavior::default(),
                }
            }
        }
        let mut b = Browser::new(SimNetwork::new(Blocked), BrowserConfig::default());
        let mut clock = SimClock::new();
        let v = b
            .visit(&Url::parse("https://example.org/").unwrap(), &mut clock)
            .unwrap();
        assert!(v.prompts.is_empty());
    }
}
