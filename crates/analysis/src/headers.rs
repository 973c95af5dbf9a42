//! §4.3: Permissions-Policy / Feature-Policy header analysis — Figure 2,
//! Table 9, embedded directive mix and misconfigurations.

use std::collections::BTreeMap;

use crawler::CrawlDataset;
use policy::allowlist::AllowlistMember;
use registry::Permission;
use serde::{Deserialize, Serialize};

use crate::table::{pct, TextTable};
use crate::view::{fold_dataset, RecordView};

/// Figure 2: adoption of the permission-control headers.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct HeaderAdoption {
    /// Non-local documents observed.
    pub documents: u64,
    /// Documents with a Permissions-Policy header.
    pub pp_documents: u64,
    /// Documents with a Feature-Policy header.
    pub fp_documents: u64,
    /// Top-level documents observed.
    pub top_documents: u64,
    /// Top-level documents with a PP header (paper: 50,469 = 4.5%).
    pub pp_top: u64,
    /// Embedded non-local documents.
    pub embedded_documents: u64,
    /// Embedded documents with a PP header (paper: 106,579 = 12.3%).
    pub pp_embedded: u64,
    /// Websites declaring both headers (paper: 2,302 overlap).
    pub both_websites: u64,
}

impl HeaderAdoption {
    /// Folds one record (successes only) into the Figure 2 counts.
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        let mut site_pp = false;
        let mut site_fp = false;
        for (frame, _) in view.frames() {
            if frame.is_local_document {
                continue;
            }
            self.documents += 1;
            let has_pp = frame.permissions_policy_header.is_some();
            let has_fp = frame.feature_policy_header.is_some();
            if has_pp {
                self.pp_documents += 1;
            }
            if has_fp {
                self.fp_documents += 1;
            }
            if frame.is_top_level {
                self.top_documents += 1;
                if has_pp {
                    self.pp_top += 1;
                    site_pp = true;
                }
                if has_fp {
                    site_fp = true;
                }
            } else {
                self.embedded_documents += 1;
                if has_pp {
                    self.pp_embedded += 1;
                }
            }
        }
        if site_pp && site_fp {
            self.both_websites += 1;
        }
    }

    /// Merges counts folded over another partition of the dataset.
    pub fn merge(&mut self, other: HeaderAdoption) {
        self.documents += other.documents;
        self.pp_documents += other.pp_documents;
        self.fp_documents += other.fp_documents;
        self.top_documents += other.top_documents;
        self.pp_top += other.pp_top;
        self.embedded_documents += other.embedded_documents;
        self.pp_embedded += other.pp_embedded;
        self.both_websites += other.both_websites;
    }
}

/// Computes Figure 2. Local documents are excluded (no headers — §4.3).
pub fn header_adoption(dataset: &CrawlDataset) -> HeaderAdoption {
    fold_dataset::<HeaderAdoption>(dataset)
}

impl HeaderAdoption {
    /// Renders Figure 2 as an actual bar chart.
    pub fn figure(&self) -> String {
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64 * 100.0
            }
        };
        crate::table::bar_chart(
            "Figure 2: Permission Control headers adoption",
            &[
                (
                    "Permissions-Policy (all docs)",
                    pct(self.pp_documents, self.documents),
                ),
                (
                    "Feature-Policy (all docs)",
                    pct(self.fp_documents, self.documents),
                ),
                (
                    "Permissions-Policy (top-level)",
                    pct(self.pp_top, self.top_documents),
                ),
                (
                    "Permissions-Policy (embedded)",
                    pct(self.pp_embedded, self.embedded_documents),
                ),
            ],
            40,
        )
    }

    /// Renders Figure 2 as a table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Figure 2: Permission Control headers adoption",
            &["Metric", "Value", "Paper"],
        );
        t.row(vec![
            "Permissions-Policy (all docs)".into(),
            pct(self.pp_documents, self.documents),
            "7.90%".into(),
        ]);
        t.row(vec![
            "Feature-Policy (all docs)".into(),
            pct(self.fp_documents, self.documents),
            "0.51%".into(),
        ]);
        t.row(vec![
            "PP top-level".into(),
            format!("{} ({})", self.pp_top, pct(self.pp_top, self.top_documents)),
            "50,469 (4.5%)".into(),
        ]);
        t.row(vec![
            "PP embedded".into(),
            format!(
                "{} ({})",
                self.pp_embedded,
                pct(self.pp_embedded, self.embedded_documents)
            ),
            "106,579 (12.3%)".into(),
        ]);
        t.row(vec![
            "both headers (websites)".into(),
            self.both_websites.to_string(),
            "2,302".into(),
        ]);
        t
    }
}

/// Least-restrictive directive class, Table 9's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DirectiveClass {
    /// `()` — feature disabled.
    Disable,
    /// `(self)`.
    SelfOnly,
    /// `(self "https://…")` and similar specific origins.
    ThirdParty,
    /// `*`.
    Star,
}

/// One Table 9 row.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DirectiveRow {
    /// Websites declaring the permission.
    pub websites: u64,
    /// Count per least-restrictive class.
    pub classes: BTreeMap<DirectiveClass, u64>,
}

/// Table 9 result plus §4.3.1 aggregates.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TopLevelDirectiveStats {
    /// Per-permission rows.
    pub rows: BTreeMap<Permission, DirectiveRow>,
    /// Top-level sites with a header that parsed.
    pub parsed_sites: u64,
    /// Average directives per parsed header (paper: 10.01).
    pub avg_directives: f64,
    /// Histogram of directive counts (for the 18/1/9 template signal).
    pub directive_count_histogram: BTreeMap<usize, u64>,
    /// Aggregate class totals across all directives.
    pub totals: BTreeMap<DirectiveClass, u64>,
}

/// The least restrictive class of an allowlist.
fn classify(policy_value: &policy::Allowlist) -> DirectiveClass {
    if policy_value.is_star() {
        DirectiveClass::Star
    } else if policy_value
        .members()
        .iter()
        .any(|m| matches!(m, AllowlistMember::Origin(_) | AllowlistMember::Src))
    {
        DirectiveClass::ThirdParty
    } else if policy_value.contains_self() {
        DirectiveClass::SelfOnly
    } else {
        DirectiveClass::Disable
    }
}

/// Streaming accumulator behind [`top_level_directives`]: carries the
/// raw directive total so the average is derived only at
/// [`TopLevelDirectiveAcc::finish`], after all partitions merge.
#[derive(Debug, Clone, Default)]
pub struct TopLevelDirectiveAcc {
    stats: TopLevelDirectiveStats,
    total_directives: u64,
}

impl TopLevelDirectiveAcc {
    /// Folds one record (successes only).
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        let Some(parsed) = view.top().and_then(|(_, facts)| facts.policy()) else {
            return;
        };
        self.stats.parsed_sites += 1;
        self.total_directives += parsed.len() as u64;
        *self
            .stats
            .directive_count_histogram
            .entry(parsed.len())
            .or_default() += 1;
        // Least-restrictive per permission per site.
        let mut per_perm: BTreeMap<Permission, DirectiveClass> = BTreeMap::new();
        for directive in parsed.directives() {
            let Some(p) = directive.permission else {
                continue;
            };
            let class = classify(&directive.allowlist);
            per_perm
                .entry(p)
                .and_modify(|existing| {
                    if class > *existing {
                        *existing = class;
                    }
                })
                .or_insert(class);
        }
        for (p, class) in per_perm {
            let row = self.stats.rows.entry(p).or_default();
            row.websites += 1;
            *row.classes.entry(class).or_default() += 1;
            *self.stats.totals.entry(class).or_default() += 1;
        }
    }

    /// Merges an accumulator folded over another partition.
    pub fn merge(&mut self, other: TopLevelDirectiveAcc) {
        for (p, row) in other.stats.rows {
            let mine = self.stats.rows.entry(p).or_default();
            mine.websites += row.websites;
            for (class, count) in row.classes {
                *mine.classes.entry(class).or_default() += count;
            }
        }
        self.stats.parsed_sites += other.stats.parsed_sites;
        for (len, count) in other.stats.directive_count_histogram {
            *self.stats.directive_count_histogram.entry(len).or_default() += count;
        }
        for (class, count) in other.stats.totals {
            *self.stats.totals.entry(class).or_default() += count;
        }
        self.total_directives += other.total_directives;
    }

    /// Finalizes into [`TopLevelDirectiveStats`], computing the average
    /// from the merged integer totals.
    pub fn finish(mut self) -> TopLevelDirectiveStats {
        self.stats.avg_directives = if self.stats.parsed_sites == 0 {
            0.0
        } else {
            self.total_directives as f64 / self.stats.parsed_sites as f64
        };
        self.stats
    }
}

/// Computes Table 9 over top-level documents with parseable headers.
pub fn top_level_directives(dataset: &CrawlDataset) -> TopLevelDirectiveStats {
    fold_dataset::<TopLevelDirectiveAcc>(dataset)
}

impl TopLevelDirectiveStats {
    /// Rows ranked by declaring-website count.
    pub fn ranked(&self) -> Vec<(Permission, &DirectiveRow)> {
        let mut rows: Vec<_> = self.rows.iter().map(|(k, v)| (*k, v)).collect();
        rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.websites));
        rows
    }

    /// Renders the top `n` rows as Table 9.
    pub fn table(&self, n: usize) -> TextTable {
        let mut t = TextTable::new(
            "Table 9: Permissions-Policy least restrictive directives (top-level)",
            &[
                "Permission",
                "Disable",
                "Self",
                "Third-party",
                "All *",
                "# Websites",
            ],
        );
        let get = |row: &DirectiveRow, class: DirectiveClass| {
            row.classes.get(&class).copied().unwrap_or(0)
        };
        for (p, row) in self.ranked().into_iter().take(n) {
            t.row(vec![
                p.token().to_string(),
                format!(
                    "{} ({})",
                    get(row, DirectiveClass::Disable),
                    pct(get(row, DirectiveClass::Disable), row.websites)
                ),
                format!(
                    "{} ({})",
                    get(row, DirectiveClass::SelfOnly),
                    pct(get(row, DirectiveClass::SelfOnly), row.websites)
                ),
                format!(
                    "{} ({})",
                    get(row, DirectiveClass::ThirdParty),
                    pct(get(row, DirectiveClass::ThirdParty), row.websites)
                ),
                format!(
                    "{} ({})",
                    get(row, DirectiveClass::Star),
                    pct(get(row, DirectiveClass::Star), row.websites)
                ),
                row.websites.to_string(),
            ]);
        }
        let totals: u64 = self.totals.values().sum();
        let total = |class| self.totals.get(&class).copied().unwrap_or(0);
        t.row(vec![
            "Total (any permission)".to_string(),
            format!(
                "{} ({})",
                total(DirectiveClass::Disable),
                pct(total(DirectiveClass::Disable), totals)
            ),
            format!(
                "{} ({})",
                total(DirectiveClass::SelfOnly),
                pct(total(DirectiveClass::SelfOnly), totals)
            ),
            format!(
                "{} ({})",
                total(DirectiveClass::ThirdParty),
                pct(total(DirectiveClass::ThirdParty), totals)
            ),
            format!(
                "{} ({})",
                total(DirectiveClass::Star),
                pct(total(DirectiveClass::Star), totals)
            ),
            self.parsed_sites.to_string(),
        ]);
        t
    }

    /// Share of directives in a class.
    pub fn class_share(&self, class: DirectiveClass) -> f64 {
        let totals: u64 = self.totals.values().sum();
        if totals == 0 {
            return 0.0;
        }
        self.totals.get(&class).copied().unwrap_or(0) as f64 / totals as f64
    }
}

/// §4.3.2: directive mix in embedded-document headers.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EmbeddedDirectiveMix {
    /// Aggregate class totals.
    pub totals: BTreeMap<DirectiveClass, u64>,
    /// Share of directives that are client-hints features.
    pub client_hint_share: f64,
    /// Embedded documents with a parsed header.
    pub documents: u64,
}

/// Streaming accumulator behind [`embedded_directive_mix`]: keeps the
/// directive / client-hint counters as integers until
/// [`EmbeddedDirectiveMixAcc::finish`] derives the share.
#[derive(Debug, Clone, Default)]
pub struct EmbeddedDirectiveMixAcc {
    mix: EmbeddedDirectiveMix,
    directives: u64,
    client_hints: u64,
}

impl EmbeddedDirectiveMixAcc {
    /// Folds one record (successes only).
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        for (frame, facts) in view.embedded() {
            if frame.is_local_document {
                continue;
            }
            let Some(parsed) = facts.policy() else {
                continue;
            };
            self.mix.documents += 1;
            for directive in parsed.directives() {
                let Some(p) = directive.permission else {
                    continue;
                };
                self.directives += 1;
                if p.is_client_hint() {
                    self.client_hints += 1;
                }
                *self
                    .mix
                    .totals
                    .entry(classify(&directive.allowlist))
                    .or_default() += 1;
            }
        }
    }

    /// Merges an accumulator folded over another partition.
    pub fn merge(&mut self, other: EmbeddedDirectiveMixAcc) {
        for (class, count) in other.mix.totals {
            *self.mix.totals.entry(class).or_default() += count;
        }
        self.mix.documents += other.mix.documents;
        self.directives += other.directives;
        self.client_hints += other.client_hints;
    }

    /// Finalizes into [`EmbeddedDirectiveMix`].
    pub fn finish(mut self) -> EmbeddedDirectiveMix {
        self.mix.client_hint_share = if self.directives == 0 {
            0.0
        } else {
            self.client_hints as f64 / self.directives as f64
        };
        self.mix
    }
}

/// Computes the §4.3.2 embedded-document directive mix.
pub fn embedded_directive_mix(dataset: &CrawlDataset) -> EmbeddedDirectiveMix {
    fold_dataset::<EmbeddedDirectiveMixAcc>(dataset)
}

/// §4.3.3 misconfiguration counts.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MisconfigStats {
    /// Frames declaring a PP header.
    pub declaring_frames: u64,
    /// Frames whose header has a syntax error (browser drops it) —
    /// paper: 3,244 (2%).
    pub syntax_error_frames: u64,
    /// Top-level websites whose header was dropped (2,788).
    pub syntax_error_websites: u64,
    /// Embedded documents whose header was dropped (456).
    pub syntax_error_embedded: u64,
    /// Websites with semantic misconfigurations in parsed headers (6,408).
    pub semantic_websites: u64,
    /// Websites with an embedded doc carrying semantic issues (653).
    pub semantic_embedded_websites: u64,
}

impl MisconfigStats {
    /// Folds one record (successes only) into the §4.3.3 counts.
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        let mut site_syntax = false;
        let mut site_semantic = false;
        let mut embedded_semantic = false;
        for (frame, facts) in view.frames() {
            let Some(report) = &facts.header else {
                continue;
            };
            self.declaring_frames += 1;
            if report.syntax_error.is_some() {
                self.syntax_error_frames += 1;
                if frame.is_top_level {
                    site_syntax = true;
                } else {
                    self.syntax_error_embedded += 1;
                }
            } else if report.is_misconfigured() {
                if frame.is_top_level {
                    site_semantic = true;
                } else {
                    embedded_semantic = true;
                }
            }
        }
        if site_syntax {
            self.syntax_error_websites += 1;
        }
        if site_semantic {
            self.semantic_websites += 1;
        }
        if embedded_semantic {
            self.semantic_embedded_websites += 1;
        }
    }

    /// Merges counts folded over another partition of the dataset.
    pub fn merge(&mut self, other: MisconfigStats) {
        self.declaring_frames += other.declaring_frames;
        self.syntax_error_frames += other.syntax_error_frames;
        self.syntax_error_websites += other.syntax_error_websites;
        self.syntax_error_embedded += other.syntax_error_embedded;
        self.semantic_websites += other.semantic_websites;
        self.semantic_embedded_websites += other.semantic_embedded_websites;
    }
}

/// Computes §4.3.3.
pub fn misconfigurations(dataset: &CrawlDataset) -> MisconfigStats {
    fold_dataset::<MisconfigStats>(dataset)
}

impl MisconfigStats {
    /// Renders the misconfiguration summary.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new("§4.3.3 misconfigurations", &["Metric", "Value", "Paper"]);
        t.row(vec![
            "declaring frames".into(),
            self.declaring_frames.to_string(),
            "157,048".into(),
        ]);
        t.row(vec![
            "syntax-error frames".into(),
            format!(
                "{} ({})",
                self.syntax_error_frames,
                pct(self.syntax_error_frames, self.declaring_frames)
            ),
            "3,244 (2%)".into(),
        ]);
        t.row(vec![
            "syntax-error websites".into(),
            self.syntax_error_websites.to_string(),
            "2,788".into(),
        ]);
        t.row(vec![
            "semantic-issue websites".into(),
            self.semantic_websites.to_string(),
            "6,408".into(),
        ]);
        t.row(vec![
            "semantic-issue embedded sites".into(),
            self.semantic_embedded_websites.to_string(),
            "653".into(),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::{CrawlConfig, Crawler};
    use webgen::{PopulationConfig, WebPopulation};

    fn dataset() -> CrawlDataset {
        let pop = WebPopulation::new(PopulationConfig {
            seed: 7,
            size: 6_000,
        });
        Crawler::new(CrawlConfig::default()).crawl(&pop)
    }

    #[test]
    fn figure2_adoption_shape() {
        let ds = dataset();
        let a = header_adoption(&ds);
        let top_rate = a.pp_top as f64 / a.top_documents as f64;
        let embedded_rate = a.pp_embedded as f64 / a.embedded_documents as f64;
        // Paper: 4.5% top-level, 12.3% embedded — embedded ~3× higher.
        assert!((0.03..0.07).contains(&top_rate), "top {top_rate}");
        assert!(
            (0.08..0.20).contains(&embedded_rate),
            "embedded {embedded_rate}"
        );
        assert!(embedded_rate > top_rate * 1.5);
        // Feature-Policy is far rarer than Permissions-Policy.
        assert!(a.fp_documents < a.pp_documents / 4);
        assert!(a.both_websites > 0);
        assert!(a.table().render().contains("Permissions-Policy"));
        let figure = a.figure();
        assert!(figure.contains('█'));
        assert!(figure.lines().count() == 5);
    }

    #[test]
    fn table9_disable_dominates() {
        let ds = dataset();
        let stats = top_level_directives(&ds);
        assert!(stats.parsed_sites > 100);
        // Paper: 83.5% disable, 9.68% self, 6.02% star.
        let disable = stats.class_share(DirectiveClass::Disable);
        let self_share = stats.class_share(DirectiveClass::SelfOnly);
        let star = stats.class_share(DirectiveClass::Star);
        assert!((0.75..0.95).contains(&disable), "disable {disable}");
        assert!(self_share < 0.2, "self {self_share}");
        assert!(star < 0.12, "star {star}");
        // Template signal: directive counts 18 and 1 dominate.
        let h = &stats.directive_count_histogram;
        let c18 = h.get(&18).copied().unwrap_or(0);
        let c1 = h.get(&1).copied().unwrap_or(0);
        let max_other = h
            .iter()
            .filter(|(k, _)| **k != 18 && **k != 1)
            .map(|(_, v)| *v)
            .max()
            .unwrap_or(0);
        assert!(c18 > max_other, "18-directive template should dominate");
        assert!(c1 > max_other / 2);
        // Average near the paper's 10.01.
        assert!(
            (6.0..14.0).contains(&stats.avg_directives),
            "{}",
            stats.avg_directives
        );
        assert!(stats.table(10).render().contains("geolocation"));
    }

    #[test]
    fn embedded_mix_is_client_hint_heavy() {
        let ds = dataset();
        let mix = embedded_directive_mix(&ds);
        assert!(mix.documents > 50);
        // §4.3.2: embedded headers are dominated by ch-ua features with *.
        assert!(mix.client_hint_share > 0.4, "{}", mix.client_hint_share);
        let star = mix.totals.get(&DirectiveClass::Star).copied().unwrap_or(0);
        let disable = mix
            .totals
            .get(&DirectiveClass::Disable)
            .copied()
            .unwrap_or(0);
        let total: u64 = mix.totals.values().sum();
        assert!(star as f64 / total as f64 > 0.2, "star share");
        assert!(disable as f64 / total as f64 > 0.05, "disable share");
    }

    #[test]
    fn misconfigurations_present_at_paper_rates() {
        let ds = dataset();
        let m = misconfigurations(&ds);
        assert!(m.declaring_frames > 200);
        let syntax_rate = m.syntax_error_frames as f64 / m.declaring_frames as f64;
        // Paper: 2% of declaring frames have syntax errors. Our top-level
        // rate is 5.5% but embedded headers are clean, so the frame-level
        // rate lands near the paper's.
        assert!((0.005..0.06).contains(&syntax_rate), "syntax {syntax_rate}");
        assert!(m.semantic_websites > m.syntax_error_websites / 2);
        assert!(m.table().render().contains("syntax-error"));
    }
}
