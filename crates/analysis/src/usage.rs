//! §4.1: permission usage — Tables 4, 5, 6 and the usage summary.

use std::collections::BTreeMap;
use std::ops::{BitOr, BitOrAssign};

use browser::{InvocationKind, InvocationRecord};
use crawler::CrawlDataset;
use registry::{Permission, PermissionSet};
use serde::{Deserialize, Serialize};

use crate::table::{pct, TextTable};
use crate::view::{fold_dataset, RecordView};

/// Row key for Table 4: the General-API group or one permission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum UsageKey {
    /// "General Permission APIs" (Permissions / Permissions Policy /
    /// Feature Policy specification APIs).
    General,
    /// A specific permission.
    Permission(Permission),
}

impl UsageKey {
    /// Display name as in the paper's tables.
    pub fn display(&self) -> String {
        match self {
            UsageKey::General => "General Permission APIs".to_string(),
            UsageKey::Permission(p) => p.display_name(),
        }
    }
}

/// A set of [`UsageKey`]s: the General-API group and a permission set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct UsageKeys {
    general: bool,
    permissions: PermissionSet,
}

impl UsageKeys {
    /// The keys one invocation marks: general and status-query APIs
    /// mark the General group, capability invocations their
    /// permissions.
    pub fn of(invocation: &InvocationRecord) -> UsageKeys {
        match invocation.kind {
            InvocationKind::General | InvocationKind::StatusQuery => UsageKeys {
                general: true,
                permissions: PermissionSet::EMPTY,
            },
            InvocationKind::Invocation => UsageKeys {
                general: false,
                permissions: invocation.permissions.iter().collect(),
            },
        }
    }

    /// Whether the set has no key.
    pub fn is_empty(self) -> bool {
        !self.general && self.permissions.is_empty()
    }

    /// Whether `key` is in the set.
    pub fn contains(self, key: UsageKey) -> bool {
        match key {
            UsageKey::General => self.general,
            UsageKey::Permission(p) => self.permissions.contains(p),
        }
    }

    /// The keys, in [`UsageKey`] order.
    pub fn iter(self) -> impl Iterator<Item = UsageKey> {
        self.general
            .then_some(UsageKey::General)
            .into_iter()
            .chain(self.permissions.iter().map(UsageKey::Permission))
    }
}

impl BitOr for UsageKeys {
    type Output = UsageKeys;
    fn bitor(self, rhs: UsageKeys) -> UsageKeys {
        UsageKeys {
            general: self.general || rhs.general,
            permissions: self.permissions | rhs.permissions,
        }
    }
}

impl BitOrAssign for UsageKeys {
    fn bitor_assign(&mut self, rhs: UsageKeys) {
        *self = *self | rhs;
    }
}

/// Per-context tallies for one usage row, split by context kind and
/// script party.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ContextTally {
    /// Contexts (frames) with this activity.
    pub contexts: u64,
    /// Contexts where a first-party script did it.
    pub first_party: u64,
    /// Contexts where a third-party script did it.
    pub third_party: u64,
}

impl ContextTally {
    fn add(&mut self, first: bool, third: bool) {
        self.contexts += 1;
        if first {
            self.first_party += 1;
        }
        if third {
            self.third_party += 1;
        }
    }

    fn merge(&mut self, other: ContextTally) {
        self.contexts += other.contexts;
        self.first_party += other.first_party;
        self.third_party += other.third_party;
    }
}

/// One Table 4 row.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InvocationRow {
    /// Top-level context tallies.
    pub top: ContextTally,
    /// Embedded context tallies.
    pub embedded: ContextTally,
    /// Websites with this activity anywhere.
    pub websites: u64,
}

/// Table 4 plus the §4.1.1 aggregates.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InvocationStats {
    /// Per-key rows.
    pub rows: BTreeMap<UsageKey, InvocationRow>,
    /// Row over *any* permission-related invocation.
    pub total: InvocationRow,
    /// Websites analyzed.
    pub websites: u64,
    /// Websites with any invocation in a top-level document.
    pub websites_top: u64,
    /// Websites with any invocation in an embedded document.
    pub websites_embedded: u64,
    /// Websites still relying on the deprecated Feature Policy API.
    pub websites_feature_policy_api: u64,
}

impl InvocationRow {
    fn merge(&mut self, other: InvocationRow) {
        self.top.merge(other.top);
        self.embedded.merge(other.embedded);
        self.websites += other.websites;
    }
}

impl InvocationStats {
    /// Folds one record (successes only) into the Table 4 tallies.
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        if view.visit().is_none() {
            return;
        }
        self.websites += 1;
        let mut site_keys = UsageKeys::default();
        let mut any_top = false;
        let mut any_embedded = false;
        let mut fp_api = false;
        for (frame, facts) in view.frames() {
            let keys = facts.usage();
            if keys.is_empty() {
                continue;
            }
            for key in keys.iter() {
                let row = self.rows.entry(key).or_default();
                let tally = if frame.is_top_level {
                    &mut row.top
                } else {
                    &mut row.embedded
                };
                tally.add(
                    facts.first_party.contains(key),
                    facts.third_party.contains(key),
                );
            }
            site_keys |= keys;
            let total_tally = if frame.is_top_level {
                any_top = true;
                &mut self.total.top
            } else {
                any_embedded = true;
                &mut self.total.embedded
            };
            total_tally.add(!facts.first_party.is_empty(), !facts.third_party.is_empty());
            fp_api |= facts.feature_policy_api;
        }
        for key in site_keys.iter() {
            self.rows.get_mut(&key).unwrap().websites += 1;
        }
        if any_top || any_embedded {
            self.total.websites += 1;
        }
        if any_top {
            self.websites_top += 1;
        }
        if any_embedded {
            self.websites_embedded += 1;
        }
        if fp_api {
            self.websites_feature_policy_api += 1;
        }
    }

    /// Merges tallies folded over another partition of the dataset.
    pub fn merge(&mut self, other: InvocationStats) {
        for (key, row) in other.rows {
            self.rows.entry(key).or_default().merge(row);
        }
        self.total.merge(other.total);
        self.websites += other.websites;
        self.websites_top += other.websites_top;
        self.websites_embedded += other.websites_embedded;
        self.websites_feature_policy_api += other.websites_feature_policy_api;
    }
}

/// Computes Table 4.
pub fn invocation_table(dataset: &CrawlDataset) -> InvocationStats {
    fold_dataset::<InvocationStats>(dataset)
}

impl InvocationStats {
    /// Rows sorted by total context count, descending.
    pub fn ranked(&self) -> Vec<(UsageKey, &InvocationRow)> {
        let mut rows: Vec<_> = self.rows.iter().map(|(k, v)| (*k, v)).collect();
        rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.top.contexts + r.embedded.contexts));
        rows
    }

    /// Renders the top `n` rows as Table 4.
    pub fn table(&self, n: usize) -> TextTable {
        let mut t = TextTable::new(
            "Table 4: Top Permissions Used At Least Once Across Top-Level and Embedded Contexts",
            &[
                "Permission",
                "Top-Level (1P/3P)",
                "Embedded (1P/3P)",
                "Total Contexts",
            ],
        );
        let fmt = |tally: &ContextTally| {
            format!(
                "{} ({}/{})",
                tally.contexts,
                pct(tally.first_party, tally.contexts),
                pct(tally.third_party, tally.contexts)
            )
        };
        for (key, row) in self.ranked().into_iter().take(n) {
            t.row(vec![
                key.display(),
                fmt(&row.top),
                fmt(&row.embedded),
                (row.top.contexts + row.embedded.contexts).to_string(),
            ]);
        }
        t.row(vec![
            "Total (any permission)".to_string(),
            fmt(&self.total.top),
            fmt(&self.total.embedded),
            (self.total.top.contexts + self.total.embedded.contexts).to_string(),
        ]);
        t
    }
}

/// One Table 5 row.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatusCheckRow {
    /// Websites where this permission's status is checked.
    pub websites: u64,
    /// Checking contexts that are embedded.
    pub embedded_contexts: u64,
    /// All checking contexts.
    pub contexts: u64,
}

/// Table 5 key: the full allowlist or one permission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CheckKey {
    /// Full-allowlist retrieval (`allowedFeatures()` / `features()`).
    AllPermissions,
    /// One permission.
    Permission(Permission),
}

impl CheckKey {
    /// Display name.
    pub fn display(&self) -> String {
        match self {
            CheckKey::AllPermissions => "All Permissions".to_string(),
            CheckKey::Permission(p) => p.display_name(),
        }
    }
}

/// A set of [`CheckKey`]s.
#[derive(Debug, Clone, Copy, Default)]
struct CheckKeys {
    all_permissions: bool,
    permissions: PermissionSet,
}

impl CheckKeys {
    fn is_empty(self) -> bool {
        !self.all_permissions && self.permissions.is_empty()
    }

    fn iter(self) -> impl Iterator<Item = CheckKey> {
        self.all_permissions
            .then_some(CheckKey::AllPermissions)
            .into_iter()
            .chain(self.permissions.iter().map(CheckKey::Permission))
    }
}

/// Table 5 plus §4.1.2 aggregates.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatusCheckStats {
    /// Per-key rows.
    pub rows: BTreeMap<CheckKey, StatusCheckRow>,
    /// Websites with any status check.
    pub total_websites: u64,
    /// Websites with checks at the top level.
    pub websites_top: u64,
    /// Websites with checks in embedded documents.
    pub websites_embedded: u64,
    /// Embedded share of all checking contexts.
    pub embedded_context_share: f64,
    /// Mean distinct specific permissions checked per checking top-level
    /// document (paper: 1.74, max 33).
    pub mean_specific_per_top_doc: f64,
    /// Maximum distinct specific permissions checked in one document.
    pub max_specific: u64,
}

/// Streaming accumulator behind [`status_check_table`]: integer totals
/// only — the shares and means that Table 5 reports are derived once in
/// [`StatusCheckAcc::finish`], so partitioning cannot perturb them.
#[derive(Debug, Clone, Default)]
pub struct StatusCheckAcc {
    stats: StatusCheckStats,
    all_contexts: u64,
    embedded_contexts: u64,
    specific_sum: u64,
    specific_docs: u64,
    max_specific: u64,
}

impl StatusCheckAcc {
    /// Folds one record (successes only).
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        let mut site_keys = CheckKeys::default();
        let mut any_top = false;
        let mut any_embedded = false;
        for (frame, _) in view.frames() {
            let mut frame_keys = CheckKeys::default();
            for inv in &frame.invocations {
                match inv.kind {
                    InvocationKind::General if inv.permissions.is_empty() => {
                        frame_keys.all_permissions = true;
                    }
                    InvocationKind::General | InvocationKind::StatusQuery => {
                        frame_keys.permissions.extend(&inv.permissions);
                    }
                    InvocationKind::Invocation => {}
                }
            }
            if frame_keys.is_empty() {
                continue;
            }
            self.all_contexts += 1;
            if !frame.is_top_level {
                any_embedded = true;
                self.embedded_contexts += 1;
            } else {
                any_top = true;
                let specific = frame_keys.permissions.len() as u64;
                if specific > 0 {
                    self.specific_sum += specific;
                    self.specific_docs += 1;
                    self.max_specific = self.max_specific.max(specific);
                }
            }
            for key in frame_keys.iter() {
                let row = self.stats.rows.entry(key).or_default();
                row.contexts += 1;
                if !frame.is_top_level {
                    row.embedded_contexts += 1;
                }
            }
            site_keys.all_permissions |= frame_keys.all_permissions;
            site_keys.permissions |= frame_keys.permissions;
        }
        if !site_keys.is_empty() {
            self.stats.total_websites += 1;
        }
        if any_top {
            self.stats.websites_top += 1;
        }
        if any_embedded {
            self.stats.websites_embedded += 1;
        }
        for key in site_keys.iter() {
            self.stats.rows.get_mut(&key).unwrap().websites += 1;
        }
    }

    /// Merges an accumulator folded over another partition.
    pub fn merge(&mut self, other: StatusCheckAcc) {
        for (key, row) in other.stats.rows {
            let mine = self.stats.rows.entry(key).or_default();
            mine.websites += row.websites;
            mine.embedded_contexts += row.embedded_contexts;
            mine.contexts += row.contexts;
        }
        self.stats.total_websites += other.stats.total_websites;
        self.stats.websites_top += other.stats.websites_top;
        self.stats.websites_embedded += other.stats.websites_embedded;
        self.all_contexts += other.all_contexts;
        self.embedded_contexts += other.embedded_contexts;
        self.specific_sum += other.specific_sum;
        self.specific_docs += other.specific_docs;
        self.max_specific = self.max_specific.max(other.max_specific);
    }

    /// Finalizes into [`StatusCheckStats`], deriving the float shares
    /// from the merged integer totals.
    pub fn finish(self) -> StatusCheckStats {
        let mut stats = self.stats;
        stats.embedded_context_share = if self.all_contexts == 0 {
            0.0
        } else {
            self.embedded_contexts as f64 / self.all_contexts as f64
        };
        stats.mean_specific_per_top_doc = if self.specific_docs == 0 {
            0.0
        } else {
            self.specific_sum as f64 / self.specific_docs as f64
        };
        stats.max_specific = self.max_specific;
        stats
    }
}

/// Computes Table 5.
pub fn status_check_table(dataset: &CrawlDataset) -> StatusCheckStats {
    fold_dataset::<StatusCheckAcc>(dataset)
}

impl StatusCheckStats {
    /// Rows sorted by website count, descending.
    pub fn ranked(&self) -> Vec<(CheckKey, &StatusCheckRow)> {
        let mut rows: Vec<_> = self.rows.iter().map(|(k, v)| (*k, v)).collect();
        rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.websites));
        rows
    }

    /// Renders the top `n` rows as Table 5.
    pub fn table(&self, n: usize) -> TextTable {
        let mut t = TextTable::new(
            "Table 5: Top Permission's Status Checked",
            &["Permission", "% Checked From Embedded", "# Websites"],
        );
        for (key, row) in self.ranked().into_iter().take(n) {
            t.row(vec![
                key.display(),
                pct(row.embedded_contexts, row.contexts),
                row.websites.to_string(),
            ]);
        }
        t.row(vec![
            "Total (any permission)".to_string(),
            format!("{:.1}%", self.embedded_context_share * 100.0),
            self.total_websites.to_string(),
        ]);
        t
    }
}

/// One Table 6 row.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StaticRow {
    /// Websites with static functionality for the permission.
    pub websites: u64,
    /// Detecting contexts that are embedded.
    pub embedded_contexts: u64,
    /// All detecting contexts.
    pub contexts: u64,
}

/// Table 6 plus §4.1.3 aggregates.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StaticStats {
    /// Per-permission rows.
    pub rows: BTreeMap<Permission, StaticRow>,
    /// Websites with any static finding.
    pub total_websites: u64,
    /// Websites with findings at top level.
    pub websites_top: u64,
    /// Websites with findings only in embedded contexts.
    pub websites_embedded_only: u64,
}

impl StaticStats {
    /// Folds one record (successes only) from its frames' static
    /// findings.
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        let mut site_perms = PermissionSet::EMPTY;
        let mut any_top = false;
        let mut any_embedded = false;
        for (frame, facts) in view.frames() {
            if facts.statics.is_empty() {
                continue;
            }
            if frame.is_top_level {
                any_top = true;
            } else {
                any_embedded = true;
            }
            for p in facts.statics {
                let row = self.rows.entry(p).or_default();
                row.contexts += 1;
                if !frame.is_top_level {
                    row.embedded_contexts += 1;
                }
            }
            site_perms |= facts.statics;
        }
        if any_top || any_embedded {
            self.total_websites += 1;
        }
        if any_top {
            self.websites_top += 1;
        } else if any_embedded {
            self.websites_embedded_only += 1;
        }
        for p in site_perms {
            self.rows.get_mut(&p).unwrap().websites += 1;
        }
    }

    /// Merges tallies folded over another partition of the dataset.
    pub fn merge(&mut self, other: StaticStats) {
        for (p, row) in other.rows {
            let mine = self.rows.entry(p).or_default();
            mine.websites += row.websites;
            mine.embedded_contexts += row.embedded_contexts;
            mine.contexts += row.contexts;
        }
        self.total_websites += other.total_websites;
        self.websites_top += other.websites_top;
        self.websites_embedded_only += other.websites_embedded_only;
    }
}

/// Computes Table 6 by scanning every collected script.
pub fn static_table(dataset: &CrawlDataset) -> StaticStats {
    fold_dataset::<StaticStats>(dataset)
}

impl StaticStats {
    /// Rows sorted by website count, descending.
    pub fn ranked(&self) -> Vec<(Permission, &StaticRow)> {
        let mut rows: Vec<_> = self.rows.iter().map(|(k, v)| (*k, v)).collect();
        rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.websites));
        rows
    }

    /// Renders the top `n` rows as Table 6.
    pub fn table(&self, n: usize) -> TextTable {
        let mut t = TextTable::new(
            "Table 6: Top Statically Detected Permissions",
            &["Permission", "% Functionality in Embedded", "# Websites"],
        );
        for (p, row) in self.ranked().into_iter().take(n) {
            t.row(vec![
                p.display_name(),
                pct(row.embedded_contexts, row.contexts),
                row.websites.to_string(),
            ]);
        }
        t.row(vec![
            "Total (any permission)".to_string(),
            String::new(),
            self.total_websites.to_string(),
        ]);
        t
    }
}

/// §4.1.4 headline percentages.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct UsageSummary {
    /// Websites analyzed.
    pub websites: u64,
    /// Websites with any permission functionality (dynamic ∪ static) —
    /// the paper's 48.52%.
    pub any: u64,
    /// Websites with dynamic invocations — 40.65%.
    pub dynamic: u64,
    /// Websites with top-level invocations — 39.41%.
    pub dynamic_top: u64,
    /// Websites with embedded invocations — 7.98%.
    pub dynamic_embedded: u64,
    /// Websites with static findings — 30.5%.
    pub static_any: u64,
    /// Third-party share of top-level invoking contexts — 98.32%.
    pub top_third_party_share: f64,
    /// First-party share of embedded invoking contexts — 74.86%.
    pub embedded_first_party_share: f64,
    /// Websites relying on the deprecated Feature Policy API — 429,259.
    pub feature_policy_api: u64,
}

/// Streaming accumulator behind [`usage_summary`]: the §4.1.4 counters
/// on their own, read from the same per-frame facts Tables 4 and 6
/// fold. Every share is derived only at [`UsageSummaryAcc::finish`].
#[derive(Debug, Clone, Default)]
pub struct UsageSummaryAcc {
    websites: u64,
    any: u64,
    dynamic: u64,
    dynamic_top: u64,
    dynamic_embedded: u64,
    static_any: u64,
    feature_policy_api: u64,
    /// Top-level contexts with a usage key, and those where a
    /// third-party script touched one.
    top_contexts: u64,
    top_third_party: u64,
    /// Embedded contexts with a usage key, and those where a
    /// first-party script touched one.
    embedded_contexts: u64,
    embedded_first_party: u64,
}

impl UsageSummaryAcc {
    /// Folds one record (successes only).
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        if view.visit().is_none() {
            return;
        }
        self.websites += 1;
        let mut any_top = false;
        let mut any_embedded = false;
        let mut has_invocations = false;
        let mut has_static = false;
        let mut fp_api = false;
        for (frame, facts) in view.frames() {
            has_invocations |= !frame.invocations.is_empty();
            // §4.1.3 counts *permission functionality*; general-API-only
            // scripts (featurePolicy probes) do not make a site "static".
            has_static |= !facts.statics.is_empty();
            if facts.usage().is_empty() {
                continue;
            }
            if frame.is_top_level {
                any_top = true;
                self.top_contexts += 1;
                self.top_third_party += u64::from(!facts.third_party.is_empty());
            } else {
                any_embedded = true;
                self.embedded_contexts += 1;
                self.embedded_first_party += u64::from(!facts.first_party.is_empty());
            }
            fp_api |= facts.feature_policy_api;
        }
        self.any += u64::from(has_invocations || has_static);
        self.dynamic += u64::from(any_top || any_embedded);
        self.dynamic_top += u64::from(any_top);
        self.dynamic_embedded += u64::from(any_embedded);
        self.static_any += u64::from(has_static);
        self.feature_policy_api += u64::from(fp_api);
    }

    /// Merges an accumulator folded over another partition.
    pub fn merge(&mut self, other: UsageSummaryAcc) {
        self.websites += other.websites;
        self.any += other.any;
        self.dynamic += other.dynamic;
        self.dynamic_top += other.dynamic_top;
        self.dynamic_embedded += other.dynamic_embedded;
        self.static_any += other.static_any;
        self.feature_policy_api += other.feature_policy_api;
        self.top_contexts += other.top_contexts;
        self.top_third_party += other.top_third_party;
        self.embedded_contexts += other.embedded_contexts;
        self.embedded_first_party += other.embedded_first_party;
    }

    /// Finalizes into [`UsageSummary`], deriving every share from the
    /// merged integer totals.
    pub fn finish(self) -> UsageSummary {
        let share = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        UsageSummary {
            websites: self.websites,
            any: self.any,
            dynamic: self.dynamic,
            dynamic_top: self.dynamic_top,
            dynamic_embedded: self.dynamic_embedded,
            static_any: self.static_any,
            top_third_party_share: share(self.top_third_party, self.top_contexts),
            embedded_first_party_share: share(self.embedded_first_party, self.embedded_contexts),
            feature_policy_api: self.feature_policy_api,
        }
    }
}

/// Computes the §4.1.4 summary in one pass over the dataset.
pub fn usage_summary(dataset: &CrawlDataset) -> UsageSummary {
    fold_dataset::<UsageSummaryAcc>(dataset)
}

impl UsageSummary {
    /// Renders the summary.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new("§4.1 usage summary", &["Metric", "Value", "Paper"]);
        let mut row = |metric: &str, part: u64, paper: &str| {
            t.row(vec![
                metric.to_string(),
                format!("{} ({})", part, pct(part, self.websites)),
                paper.to_string(),
            ]);
        };
        row("any permission functionality", self.any, "48.52%");
        row("dynamic invocations", self.dynamic, "40.65%");
        row("dynamic top-level", self.dynamic_top, "39.41%");
        row("dynamic embedded", self.dynamic_embedded, "7.98%");
        row("static findings", self.static_any, "30.5%");
        row(
            "Feature Policy API reliance",
            self.feature_policy_api,
            "429,259 sites",
        );
        t.row(vec![
            "top-level 3p context share".to_string(),
            format!("{:.2}%", self.top_third_party_share * 100.0),
            "98.32%".to_string(),
        ]);
        t.row(vec![
            "embedded 1p context share".to_string(),
            format!("{:.2}%", self.embedded_first_party_share * 100.0),
            "74.86%".to_string(),
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
            size: 3_000,
        });
        Crawler::new(CrawlConfig::default()).crawl(&pop)
    }

    #[test]
    fn usage_shape_matches_paper() {
        let ds = dataset();
        let summary = usage_summary(&ds);
        let frac = |x: u64| x as f64 / summary.websites as f64;
        // Paper: 48.52% any, 40.65% dynamic, 39.41% top, 7.98% embedded,
        // 30.5% static. Generous tolerances: shape, not noise.
        assert!(
            (0.55..0.80).contains(&frac(summary.any)),
            "any {}",
            frac(summary.any)
        );
        assert!(
            (0.45..0.68).contains(&frac(summary.dynamic)),
            "dyn {}",
            frac(summary.dynamic)
        );
        assert!(
            (0.40..0.64).contains(&frac(summary.dynamic_top)),
            "top {}",
            frac(summary.dynamic_top)
        );
        assert!(
            (0.05..0.17).contains(&frac(summary.dynamic_embedded)),
            "emb {}",
            frac(summary.dynamic_embedded)
        );
        assert!(
            (0.30..0.60).contains(&frac(summary.static_any)),
            "static {}",
            frac(summary.static_any)
        );
        // Third-party dominates top-level; first-party dominates embedded.
        assert!(
            summary.top_third_party_share > 0.85,
            "{}",
            summary.top_third_party_share
        );
        assert!(
            summary.embedded_first_party_share > 0.55,
            "{}",
            summary.embedded_first_party_share
        );
        // Deprecated API dominates among invoking sites.
        assert!(summary.feature_policy_api as f64 / summary.dynamic as f64 > 0.8);
    }

    #[test]
    fn table4_general_dominates_then_battery_notifications() {
        let ds = dataset();
        let stats = invocation_table(&ds);
        let ranked = stats.ranked();
        assert_eq!(ranked[0].0, UsageKey::General);
        let names: Vec<String> = ranked.iter().take(6).map(|(k, _)| k.display()).collect();
        assert!(names.contains(&"Battery".to_string()), "{names:?}");
        assert!(names.contains(&"Notifications".to_string()), "{names:?}");
        // Battery: embedded contexts dominated by first-party (ad frames'
        // own scripts) — paper: 96.83% 1p.
        let battery = &stats.rows[&UsageKey::Permission(Permission::Battery)];
        assert!(battery.embedded.first_party > battery.embedded.third_party);
        // Notifications: top-level, mostly third-party push vendors.
        let notif = &stats.rows[&UsageKey::Permission(Permission::Notifications)];
        assert!(notif.top.third_party > notif.top.first_party);
        assert!(notif.top.contexts > notif.embedded.contexts);
        let text = stats.table(10).render();
        assert!(text.contains("General Permission APIs"));
    }

    #[test]
    fn table5_all_permissions_ranks_first() {
        let ds = dataset();
        let stats = status_check_table(&ds);
        let ranked = stats.ranked();
        assert_eq!(ranked[0].0, CheckKey::AllPermissions);
        // Specific rows exist for notifications / geolocation / midi.
        assert!(stats
            .rows
            .contains_key(&CheckKey::Permission(Permission::Notifications)));
        assert!(stats
            .rows
            .contains_key(&CheckKey::Permission(Permission::Geolocation)));
        assert!(stats
            .rows
            .contains_key(&CheckKey::Permission(Permission::Midi)));
        // Mean specific permissions checked per doc near the paper's 1.74.
        assert!((1.0..4.0).contains(&stats.mean_specific_per_top_doc));
        let text = stats.table(10).render();
        assert!(text.contains("All Permissions"));
    }

    #[test]
    fn table6_clipboard_write_leads_and_camera_equals_microphone() {
        let ds = dataset();
        let stats = static_table(&ds);
        let ranked = stats.ranked();
        // Clipboard Write is the top statically-detected permission.
        assert_eq!(ranked[0].0, Permission::ClipboardWrite);
        // getUserMedia drives identical camera/microphone counts.
        let cam = &stats.rows[&Permission::Camera];
        let mic = &stats.rows[&Permission::Microphone];
        assert_eq!(cam.websites, mic.websites);
        // Static geolocation far exceeds dynamic geolocation (click-gated).
        let inv = invocation_table(&ds);
        let geo_static = stats.rows[&Permission::Geolocation].websites;
        let geo_dynamic = inv
            .rows
            .get(&UsageKey::Permission(Permission::Geolocation))
            .map(|r| r.websites)
            .unwrap_or(0);
        assert!(
            geo_static > geo_dynamic * 5,
            "static {geo_static} vs dynamic {geo_dynamic}"
        );
    }
}
