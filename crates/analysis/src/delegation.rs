//! §4.2: policy-controlled permission delegation — Tables 7, 8 and the
//! directive mix.

use std::collections::{BTreeMap, BTreeSet};

use browser::FrameRecord;
use crawler::CrawlDataset;
use policy::{AllowAttribute, DelegationDirective};
use registry::{Permission, PermissionSet};
use serde::{Deserialize, Serialize};

use crate::intern::{intern, resolve, Sym};
use crate::table::{pct, TextTable};
use crate::view::{fold_dataset, FrameFacts, RecordView};

/// Table 7 row: one embedded-document site receiving delegations.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DelegatedEmbedRow {
    /// Websites delegating to this site at least once.
    pub websites: u64,
    /// Total inclusions of this site (with or without delegation).
    pub inclusions: u64,
}

/// Table 7 result plus §4.2 aggregates.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DelegatedEmbedStats {
    /// Per-site rows.
    pub rows: BTreeMap<String, DelegatedEmbedRow>,
    /// Websites delegating to any embedded document (12.07%).
    pub websites_delegating_any: u64,
    /// Websites delegating to an *external* embedded document (10.8%).
    pub websites_delegating_external: u64,
    /// Websites analyzed.
    pub websites: u64,
}

/// Whether a frame's `allow` attribute actually delegates something.
fn delegates(facts: &FrameFacts) -> bool {
    facts
        .allow
        .as_ref()
        .is_some_and(AllowAttribute::delegates_anything)
}

/// A directly inserted embed (depth 1) whose `<iframe>` attributes were
/// collected: the embeds Table 7 counts.
fn direct_iframe(frame: &FrameRecord) -> bool {
    frame.depth == 1 && frame.iframe_attrs.is_some()
}

/// Streaming accumulator behind [`DelegatedEmbedStats`]: per-embed
/// tallies keyed by interned [`Sym`] so the per-record fold never
/// clones a site string. Resolved (and re-sorted by the resulting
/// `BTreeMap<String, _>`) only once, in [`DelegatedEmbedAcc::finish`].
#[derive(Debug, Clone, Default)]
pub struct DelegatedEmbedAcc {
    rows: BTreeMap<Sym, DelegatedEmbedRow>,
    websites_delegating_any: u64,
    websites_delegating_external: u64,
    websites: u64,
}

impl DelegatedEmbedAcc {
    /// Folds one record (successes only) into the Table 7 tallies.
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        if view.visit().is_none() {
            return;
        }
        self.websites += 1;
        for site in view.external_sites(|frame, _| direct_iframe(frame)) {
            self.rows.entry(intern(site)).or_default().inclusions += 1;
        }
        let mut external = false;
        for site in view.external_sites(|frame, facts| direct_iframe(frame) && delegates(facts)) {
            external = true;
            self.rows.entry(intern(site)).or_default().websites += 1;
        }
        // Local and same-site embeds delegate too, but only count here.
        let any = view
            .embedded()
            .any(|(frame, facts)| direct_iframe(frame) && delegates(facts));
        if any {
            self.websites_delegating_any += 1;
        }
        if external {
            self.websites_delegating_external += 1;
        }
    }

    /// Merges tallies folded over another partition of the dataset.
    pub fn merge(&mut self, other: DelegatedEmbedAcc) {
        for (site, row) in other.rows {
            let mine = self.rows.entry(site).or_default();
            mine.websites += row.websites;
            mine.inclusions += row.inclusions;
        }
        self.websites_delegating_any += other.websites_delegating_any;
        self.websites_delegating_external += other.websites_delegating_external;
        self.websites += other.websites;
    }

    /// Resolves symbols back to site strings. `Sym` order is not
    /// deterministic, so the string-keyed `BTreeMap` re-sorts here.
    pub fn finish(self) -> DelegatedEmbedStats {
        DelegatedEmbedStats {
            rows: self
                .rows
                .into_iter()
                .map(|(sym, row)| (resolve(sym).to_string(), row))
                .collect(),
            websites_delegating_any: self.websites_delegating_any,
            websites_delegating_external: self.websites_delegating_external,
            websites: self.websites,
        }
    }
}

/// Computes Table 7 (direct iframes only, like the paper).
pub fn delegated_embeds(dataset: &CrawlDataset) -> DelegatedEmbedStats {
    fold_dataset::<DelegatedEmbedAcc>(dataset)
}

impl DelegatedEmbedStats {
    /// Rows ranked by delegating-website count.
    pub fn ranked(&self) -> Vec<(&str, &DelegatedEmbedRow)> {
        let mut rows: Vec<_> = self.rows.iter().map(|(k, v)| (k.as_str(), v)).collect();
        rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.websites));
        rows
    }

    /// Share of a site's inclusions that carry delegation (the paper's
    /// google.com 4.95% vs livechatinc.com 99.69% contrast).
    pub fn delegation_share(&self, site: &str) -> f64 {
        match self.rows.get(site) {
            Some(row) if row.inclusions > 0 => row.websites as f64 / row.inclusions as f64,
            _ => 0.0,
        }
    }

    /// Renders the top `n` rows as Table 7.
    pub fn table(&self, n: usize) -> TextTable {
        let mut t = TextTable::new(
            "Table 7: Top External Embedded Documents with Delegated Permissions",
            &["Embedded Document Site", "# Top-Level Websites"],
        );
        for (site, row) in self.ranked().into_iter().take(n) {
            if row.websites == 0 {
                break;
            }
            t.row(vec![site.to_string(), row.websites.to_string()]);
        }
        t.row(vec![
            "Total (any site)".to_string(),
            self.websites_delegating_external.to_string(),
        ]);
        t
    }
}

/// Table 8 row: one delegated permission.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DelegatedPermissionRow {
    /// Individual delegations (iframes × features).
    pub delegations: u64,
    /// Websites with at least one such delegation.
    pub websites: u64,
}

/// §4.2.2 directive mix.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DirectiveMix {
    /// No explicit value (defaults to `src`) — paper 82.12%.
    pub default_src: u64,
    /// Explicit `*` — 17.17%.
    pub star: u64,
    /// Explicit `'src'` — 0.40%.
    pub explicit_src: u64,
    /// `'none'` — 0.15%.
    pub none: u64,
    /// `'self'` / specific origins — 0.16%.
    pub specific: u64,
}

impl DirectiveMix {
    /// Total delegations classified.
    pub fn total(&self) -> u64 {
        self.default_src + self.star + self.explicit_src + self.none + self.specific
    }
}

/// Tables 8 + directive mix, over external direct embeds.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DelegatedPermissionStats {
    /// Per-permission rows.
    pub rows: BTreeMap<Permission, DelegatedPermissionRow>,
    /// Directive mix over all delegations.
    pub directives: DirectiveMix,
    /// Websites delegating any permission to an external embed.
    pub websites_any: u64,
}

impl DelegatedPermissionStats {
    /// Folds one record (successes only) into the Table 8 tallies and
    /// directive mix.
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        let own_site = view.own_site();
        let mut site_perms = PermissionSet::EMPTY;
        let mut any = false;
        for (frame, facts) in view.embedded() {
            if frame.depth != 1 || frame.is_local_document {
                continue;
            }
            if frame.site.is_some() && frame.site.as_deref() == own_site {
                continue;
            }
            let Some(allow) = &facts.allow else {
                continue;
            };
            for delegation in allow.delegations() {
                match delegation.directive {
                    DelegationDirective::DefaultSrc => self.directives.default_src += 1,
                    DelegationDirective::Star => self.directives.star += 1,
                    DelegationDirective::ExplicitSrc => self.directives.explicit_src += 1,
                    DelegationDirective::None => {
                        self.directives.none += 1;
                        continue; // a 'none' entry is not a delegation
                    }
                    DelegationDirective::Specific => self.directives.specific += 1,
                }
                if let Some(p) = delegation.permission {
                    let row = self.rows.entry(p).or_default();
                    row.delegations += 1;
                    site_perms.insert(p);
                    any = true;
                }
            }
        }
        for p in site_perms {
            self.rows.get_mut(&p).unwrap().websites += 1;
        }
        if any {
            self.websites_any += 1;
        }
    }

    /// Merges tallies folded over another partition of the dataset.
    pub fn merge(&mut self, other: DelegatedPermissionStats) {
        for (p, row) in other.rows {
            let mine = self.rows.entry(p).or_default();
            mine.delegations += row.delegations;
            mine.websites += row.websites;
        }
        self.directives.default_src += other.directives.default_src;
        self.directives.star += other.directives.star;
        self.directives.explicit_src += other.directives.explicit_src;
        self.directives.none += other.directives.none;
        self.directives.specific += other.directives.specific;
        self.websites_any += other.websites_any;
    }
}

/// Computes Table 8 and the §4.2.2 directive mix.
pub fn delegated_permissions(dataset: &CrawlDataset) -> DelegatedPermissionStats {
    fold_dataset::<DelegatedPermissionStats>(dataset)
}

impl DelegatedPermissionStats {
    /// Rows ranked by website count.
    pub fn ranked(&self) -> Vec<(Permission, &DelegatedPermissionRow)> {
        let mut rows: Vec<_> = self.rows.iter().map(|(k, v)| (*k, v)).collect();
        rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.websites));
        rows
    }

    /// Renders the top `n` rows as Table 8.
    pub fn table(&self, n: usize) -> TextTable {
        let mut t = TextTable::new(
            "Table 8: Top Delegated Permissions to External Embedded Documents",
            &["Permission", "Delegations", "# Top-Level Websites"],
        );
        for (p, row) in self.ranked().into_iter().take(n) {
            t.row(vec![
                p.token().to_string(),
                row.delegations.to_string(),
                row.websites.to_string(),
            ]);
        }
        t.row(vec![
            "Total (any permission)".to_string(),
            self.rows
                .values()
                .map(|r| r.delegations)
                .sum::<u64>()
                .to_string(),
            self.websites_any.to_string(),
        ]);
        t
    }

    /// Renders the §4.2.2 directive mix.
    pub fn directive_table(&self) -> TextTable {
        let mut t = TextTable::new(
            "§4.2.2 delegation directives",
            &["Directive", "Share", "Paper"],
        );
        let total = self.directives.total();
        let mut row = |name: &str, value: u64, paper: &str| {
            t.row(vec![name.to_string(), pct(value, total), paper.to_string()]);
        };
        row("default (src)", self.directives.default_src, "82.12%");
        row("*", self.directives.star, "17.17%");
        row("'src'", self.directives.explicit_src, "0.40%");
        row("'none'", self.directives.none, "0.15%");
        row("specific", self.directives.specific, "0.16%");
        t
    }
}

/// Convenience: just the directive mix.
pub fn directive_mix(dataset: &CrawlDataset) -> DirectiveMix {
    delegated_permissions(dataset).directives
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::{CrawlConfig, Crawler};
    use webgen::{PopulationConfig, WebPopulation};

    fn dataset() -> CrawlDataset {
        let pop = WebPopulation::new(PopulationConfig {
            seed: 7,
            size: 4_000,
        });
        Crawler::new(CrawlConfig::default()).crawl(&pop)
    }

    #[test]
    fn table7_shape() {
        let ds = dataset();
        let stats = delegated_embeds(&ds);
        // Delegation rates: ~12% any, ~10.8% external.
        let any = stats.websites_delegating_any as f64 / stats.websites as f64;
        let ext = stats.websites_delegating_external as f64 / stats.websites as f64;
        assert!((0.08..0.18).contains(&any), "any = {any}");
        assert!(ext <= any);
        assert!((0.07..0.16).contains(&ext), "ext = {ext}");
        // google.com: embedded everywhere, delegated rarely;
        // livechatinc.com: delegated essentially always.
        let google = stats.delegation_share("google.com");
        let livechat = stats.delegation_share("livechatinc.com");
        assert!(google < 0.12, "google delegation share {google}");
        assert!(livechat > 0.95, "livechat delegation share {livechat}");
        // Top delegated embeds include the ad/video/social majors.
        let top: Vec<&str> = stats.ranked().into_iter().take(8).map(|(s, _)| s).collect();
        for expected in ["googlesyndication.com", "youtube.com", "livechatinc.com"] {
            assert!(top.contains(&expected), "{top:?}");
        }
    }

    #[test]
    fn table8_shape() {
        let ds = dataset();
        let stats = delegated_permissions(&ds);
        let ranked = stats.ranked();
        let top: Vec<Permission> = ranked.iter().take(12).map(|(p, _)| *p).collect();
        // autoplay leads; powerful microphone and ad permissions rank.
        assert_eq!(top[0], Permission::Autoplay);
        assert!(top.contains(&Permission::Microphone), "{top:?}");
        assert!(top.contains(&Permission::AttributionReporting), "{top:?}");
        assert!(top.contains(&Permission::RunAdAuction), "{top:?}");
        // Camera and microphone delegations travel together (capture
        // widgets delegate both).
        let cam = stats.rows[&Permission::Camera].websites as f64;
        let mic = stats.rows[&Permission::Microphone].websites as f64;
        assert!((cam / mic - 1.0).abs() < 0.4, "cam {cam} mic {mic}");
        // Multiple ad frames per site: delegations exceed websites.
        let ads = &stats.rows[&Permission::RunAdAuction];
        assert!(ads.delegations > ads.websites);
    }

    #[test]
    fn directive_mix_matches_paper() {
        let ds = dataset();
        let mix = directive_mix(&ds);
        let total = mix.total() as f64;
        let default_share = mix.default_src as f64 / total;
        let star_share = mix.star as f64 / total;
        // Paper: 82.12% default, 17.17% star.
        assert!(
            (0.70..0.92).contains(&default_share),
            "default {default_share}"
        );
        assert!((0.08..0.28).contains(&star_share), "star {star_share}");
        // The rare tails exist but stay rare.
        assert!(mix.explicit_src + mix.none + mix.specific < mix.star / 4);
    }

    #[test]
    fn tables_render() {
        let ds = dataset();
        assert!(delegated_embeds(&ds)
            .table(10)
            .render()
            .contains("livechatinc.com"));
        let perms = delegated_permissions(&ds);
        assert!(perms.table(10).render().contains("autoplay"));
        assert!(perms.directive_table().render().contains("82.12%"));
    }
}

/// §4.2.1's delegation purpose groups: the paper observes that delegated
/// permission sets cluster by embed functionality — ads, social/
/// multimedia, customer support, payment, session, other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PurposeGroup {
    /// attribution-reporting / run-ad-auction / join-ad-interest-group.
    Ads,
    /// autoplay / clipboard-write / fullscreen / encrypted-media /
    /// picture-in-picture / sensors.
    SocialMultimedia,
    /// camera / microphone / display-capture.
    CustomerSupport,
    /// payment.
    Payment,
    /// identity-credentials-get / otp-credentials.
    Session,
    /// Everything else (cross-origin-isolated, private state tokens, …).
    Other,
}

impl PurposeGroup {
    /// Display label matching the paper's bullet list.
    pub fn label(&self) -> &'static str {
        match self {
            PurposeGroup::Ads => "Ads-Related",
            PurposeGroup::SocialMultimedia => "Social Media and Multimedia",
            PurposeGroup::CustomerSupport => "Customer Support",
            PurposeGroup::Payment => "Payment-Related",
            PurposeGroup::Session => "Session-Related",
            PurposeGroup::Other => "Others",
        }
    }
}

/// Classifies a delegated-permission set into its dominant purpose group,
/// mirroring the paper's qualitative clustering.
pub fn classify_purpose(perms: &BTreeSet<Permission>) -> PurposeGroup {
    use Permission as P;
    let has = |p: Permission| perms.contains(&p);
    if has(P::Camera) || has(P::Microphone) || has(P::DisplayCapture) {
        return PurposeGroup::CustomerSupport;
    }
    if has(P::AttributionReporting) || has(P::RunAdAuction) || has(P::JoinAdInterestGroup) {
        return PurposeGroup::Ads;
    }
    if has(P::Payment) {
        return PurposeGroup::Payment;
    }
    if has(P::IdentityCredentialsGet) || has(P::OtpCredentials) {
        return PurposeGroup::Session;
    }
    if has(P::Autoplay)
        || has(P::EncryptedMedia)
        || has(P::PictureInPicture)
        || has(P::ClipboardWrite)
        || has(P::Fullscreen)
        || has(P::Accelerometer)
        || has(P::Gyroscope)
        || has(P::WebShare)
    {
        return PurposeGroup::SocialMultimedia;
    }
    PurposeGroup::Other
}

/// §4.2.1 purpose-group census: embedded sites receiving delegations,
/// bucketed by the purpose their delegated permission sets imply.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PurposeGroupStats {
    /// Per group: (embedded sites, delegating websites).
    pub groups: BTreeMap<PurposeGroup, (u64, u64)>,
}

/// Streaming accumulator behind [`purpose_groups`]: the union of
/// delegated permissions and the set of delegating websites, per
/// embedded site (interned — `finish` only counts sites, so the
/// symbols are never resolved), classified only at
/// [`PurposeGroupAcc::finish`].
#[derive(Debug, Clone, Default)]
pub struct PurposeGroupAcc {
    per_site: BTreeMap<Sym, (PermissionSet, BTreeSet<u64>)>,
}

impl PurposeGroupAcc {
    /// Folds one record (successes only).
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        let own_site = view.own_site();
        for (frame, facts) in view.embedded() {
            if frame.depth != 1 || frame.is_local_document {
                continue;
            }
            let Some(site) = &frame.site else { continue };
            if Some(site.as_str()) == own_site {
                continue;
            }
            let Some(allow) = &facts.allow else {
                continue;
            };
            let perms: PermissionSet = allow
                .delegations()
                .iter()
                .filter(|d| !d.allowlist.is_empty())
                .filter_map(|d| d.permission)
                .collect();
            if perms.is_empty() {
                continue;
            }
            let entry = self.per_site.entry(intern(site)).or_default();
            entry.0 |= perms;
            entry.1.insert(view.record().rank);
        }
    }

    /// Merges an accumulator folded over another partition: permission
    /// sets and delegating-website sets union per embedded site, so the
    /// partitioning never shows in the classification.
    pub fn merge(&mut self, other: PurposeGroupAcc) {
        for (site, (perms, ranks)) in other.per_site {
            let entry = self.per_site.entry(site).or_default();
            entry.0 |= perms;
            entry.1.extend(ranks);
        }
    }

    /// Classifies every embedded site's accumulated permission set into
    /// its purpose group.
    pub fn finish(self) -> PurposeGroupStats {
        let mut stats = PurposeGroupStats::default();
        for (_, (perms, ranks)) in self.per_site {
            let group = classify_purpose(&perms.iter().collect());
            let entry = stats.groups.entry(group).or_default();
            entry.0 += 1;
            entry.1 += ranks.len() as u64;
        }
        stats
    }
}

/// Computes the purpose-group census.
pub fn purpose_groups(dataset: &CrawlDataset) -> PurposeGroupStats {
    fold_dataset::<PurposeGroupAcc>(dataset)
}

impl PurposeGroupStats {
    /// Renders the §4.2.1 grouping.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "§4.2.1 delegation purpose groups",
            &["Group", "Embedded sites", "Delegating websites"],
        );
        let mut rows: Vec<_> = self.groups.iter().collect();
        rows.sort_by_key(|(_, (_, sites))| std::cmp::Reverse(*sites));
        for (group, (embeds, sites)) in rows {
            t.row(vec![
                group.label().to_string(),
                embeds.to_string(),
                sites.to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod purpose_tests {
    use super::*;
    use crawler::{CrawlConfig, Crawler};
    use webgen::{PopulationConfig, WebPopulation};

    #[test]
    fn classification_matches_paper_examples() {
        use Permission as P;
        let set = |ps: &[Permission]| ps.iter().copied().collect::<BTreeSet<_>>();
        assert_eq!(
            classify_purpose(&set(&[P::AttributionReporting, P::RunAdAuction])),
            PurposeGroup::Ads
        );
        assert_eq!(
            classify_purpose(&set(&[P::Autoplay, P::ClipboardWrite, P::EncryptedMedia])),
            PurposeGroup::SocialMultimedia
        );
        assert_eq!(
            classify_purpose(&set(&[P::Camera, P::Microphone, P::DisplayCapture])),
            PurposeGroup::CustomerSupport
        );
        assert_eq!(classify_purpose(&set(&[P::Payment])), PurposeGroup::Payment);
        assert_eq!(
            classify_purpose(&set(&[P::IdentityCredentialsGet, P::OtpCredentials])),
            PurposeGroup::Session
        );
        assert_eq!(
            classify_purpose(&set(&[P::CrossOriginIsolated])),
            PurposeGroup::Other
        );
    }

    #[test]
    fn groups_census_has_paper_shape() {
        let pop = WebPopulation::new(PopulationConfig {
            seed: 7,
            size: 5_000,
        });
        let ds = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let stats = purpose_groups(&ds);
        // All major groups occur.
        for group in [
            PurposeGroup::Ads,
            PurposeGroup::SocialMultimedia,
            PurposeGroup::CustomerSupport,
            PurposeGroup::Payment,
        ] {
            assert!(stats.groups.contains_key(&group), "{group:?} missing");
        }
        // Ads and social dominate the delegating-website counts.
        let sites = |g: PurposeGroup| stats.groups.get(&g).map(|(_, s)| *s).unwrap_or(0);
        assert!(sites(PurposeGroup::Ads) > sites(PurposeGroup::Payment));
        assert!(sites(PurposeGroup::SocialMultimedia) > sites(PurposeGroup::Payment));
        assert!(stats.table().render().contains("Customer Support"));
    }
}
