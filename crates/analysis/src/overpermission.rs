//! §5 / Tables 10 & 13: embedded documents with delegated-but-unused
//! permissions.
//!
//! The paper's method, reproduced exactly:
//!
//! 1. For each embedded origin (we group by site, as the tables do),
//!    collect the delegated permissions appearing in **at least 5%** of
//!    its delegated iframes — the prevalence threshold that filters
//!    one-off delegations.
//! 2. For each embedded *instance*, collect all permission-related
//!    activity: dynamic invocations, status checks, and static script
//!    functionality of the frame's own scripts.
//! 3. A prevalent delegated permission with no activity in the instance
//!    is *potentially unused* there; the embedding website is potentially
//!    affected. (Per-instance granularity is what makes the paper's
//!    Facebook row work: most Facebook embeds use their delegated
//!    permissions, and only the ~8% that do not — 1,405 websites — are
//!    affected.)
//!
//! Features that cannot be meaningfully hijacked via delegation are
//! excluded from the risk lists: features whose default allowlist is `*`
//! (delegation is a no-op — §4.2.1's picture-in-picture observation) and
//! the UI-chrome features `autoplay`/`fullscreen` with no instrumentable
//! permission surface.

use std::collections::{BTreeMap, BTreeSet};

use crawler::CrawlDataset;
use registry::{DefaultAllowlist, Permission, PermissionSet};
use serde::{Deserialize, Serialize};

use crate::intern::{intern, resolve, Sym};
use crate::table::TextTable;
use crate::view::{fold_dataset, RecordView};

/// One Table 10/13 row.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UnusedDelegationRow {
    /// The potentially unused permissions.
    pub unused: BTreeSet<Permission>,
    /// Websites delegating at least one of them to this embed.
    pub affected_websites: u64,
}

/// The §5 analysis result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OverPermissionStats {
    /// Per-embedded-site rows.
    pub rows: BTreeMap<String, UnusedDelegationRow>,
    /// Union of affected websites.
    pub total_affected: u64,
}

/// Whether a permission is in scope for the over-permission risk lists.
fn risk_relevant(p: Permission) -> bool {
    if matches!(p, Permission::Autoplay | Permission::Fullscreen) {
        return false;
    }
    match p.info().default_allowlist {
        Some(DefaultAllowlist::Star) => false, // delegation is a no-op
        Some(DefaultAllowlist::SelfOrigin) => true,
        None => false,
    }
}

/// Per-embedded-site working state for [`OverPermissionAcc`]: delegation
/// prevalence plus the *candidate* unused pairs (permission → embedding
/// ranks where an instance delegated it with no observed activity). The
/// 5% prevalence filter only applies at finish, against fully merged
/// counts — which is what makes the analysis a single pass.
#[derive(Debug, Clone, Default)]
struct SiteOverPermission {
    delegated_frames: u64,
    delegation_counts: BTreeMap<Permission, u64>,
    candidates: BTreeMap<Permission, BTreeSet<u64>>,
}

/// Streaming accumulator behind [`unused_delegations`]. Candidacy (an
/// instance delegates a risk-relevant permission and shows no activity
/// for it) is a per-record fact, so it folds; the prevalence threshold
/// is a whole-dataset fact, so it waits for [`OverPermissionAcc::finish`].
#[derive(Debug, Clone, Default)]
pub struct OverPermissionAcc {
    per_site: BTreeMap<Sym, SiteOverPermission>,
}

impl OverPermissionAcc {
    /// Folds one record (successes only).
    pub(crate) fn fold(&mut self, view: &RecordView<'_>) {
        let own_site = view.own_site();
        for (frame, facts) in view.embedded() {
            let Some(site) = &frame.site else { continue };
            if Some(site.as_str()) == own_site {
                continue;
            }
            let Some(allow) = &facts.allow else { continue };
            // The permissions delegated to the frame (non-empty
            // allowlists only), once per delegation.
            let mut delegated = allow
                .delegations()
                .iter()
                .filter(|d| !d.allowlist.is_empty())
                .filter_map(|d| d.permission)
                .peekable();
            if delegated.peek().is_none() {
                continue;
            }
            // The instance's activity: invocations + static findings.
            let invoked: PermissionSet = frame
                .invocations
                .iter()
                .flat_map(|inv| &inv.permissions)
                .collect();
            let activity = invoked | facts.statics;
            let acc = self.per_site.entry(intern(site)).or_default();
            acc.delegated_frames += 1;
            for p in delegated {
                *acc.delegation_counts.entry(p).or_default() += 1;
                if risk_relevant(p) && !activity.contains(p) {
                    acc.candidates
                        .entry(p)
                        .or_default()
                        .insert(view.record().rank);
                }
            }
        }
    }

    /// Merges an accumulator folded over another partition: prevalence
    /// counters add, candidate rank sets union.
    pub fn merge(&mut self, other: OverPermissionAcc) {
        for (site, acc) in other.per_site {
            let mine = self.per_site.entry(site).or_default();
            mine.delegated_frames += acc.delegated_frames;
            for (p, count) in acc.delegation_counts {
                *mine.delegation_counts.entry(p).or_default() += count;
            }
            for (p, ranks) in acc.candidates {
                mine.candidates.entry(p).or_default().extend(ranks);
            }
        }
    }

    /// Applies the 5% prevalence filter to the merged candidates and
    /// builds the §5 result. Symbols resolve back to site strings here;
    /// the string-keyed `BTreeMap` re-sorts them.
    pub fn finish(self) -> OverPermissionStats {
        let mut rows: BTreeMap<String, (BTreeSet<Permission>, BTreeSet<u64>)> = BTreeMap::new();
        let mut affected_union: BTreeSet<u64> = BTreeSet::new();
        for (sym, acc) in self.per_site {
            let site = resolve(sym);
            for (p, ranks) in acc.candidates {
                let share = acc.delegation_counts.get(&p).copied().unwrap_or(0) as f64
                    / acc.delegated_frames as f64;
                if share < 0.05 {
                    continue;
                }
                let entry = rows.entry(site.to_string()).or_default();
                entry.0.insert(p);
                entry.1.extend(ranks.iter().copied());
                affected_union.extend(ranks);
            }
        }
        OverPermissionStats {
            rows: rows
                .into_iter()
                .map(|(site, (unused, affected))| {
                    (
                        site,
                        UnusedDelegationRow {
                            unused,
                            affected_websites: affected.len() as u64,
                        },
                    )
                })
                .collect(),
            total_affected: affected_union.len() as u64,
        }
    }
}

/// Runs the §5 unused-delegation analysis.
pub fn unused_delegations(dataset: &CrawlDataset) -> OverPermissionStats {
    fold_dataset::<OverPermissionAcc>(dataset)
}

impl OverPermissionStats {
    /// Rows ranked by affected-website count.
    pub fn ranked(&self) -> Vec<(&str, &UnusedDelegationRow)> {
        let mut rows: Vec<_> = self.rows.iter().map(|(k, v)| (k.as_str(), v)).collect();
        rows.sort_by_key(|(_, r)| std::cmp::Reverse(r.affected_websites));
        rows
    }

    /// Renders the top `n` rows as Table 10 / 13.
    pub fn table(&self, n: usize) -> TextTable {
        let mut t = TextTable::new(
            "Table 10/13: Embedded Documents with Potentially Unused Delegated Permissions",
            &[
                "Embedded Iframe",
                "Potentially Unused Permissions",
                "# Affected Websites",
            ],
        );
        for (site, row) in self.ranked().into_iter().take(n) {
            let perms = row
                .unused
                .iter()
                .map(|p| p.token())
                .collect::<Vec<_>>()
                .join(", ");
            t.row(vec![
                site.to_string(),
                perms,
                row.affected_websites.to_string(),
            ]);
        }
        t.row(vec![
            "Total (any iframe)".to_string(),
            String::new(),
            self.total_affected.to_string(),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::{CrawlConfig, Crawler};
    use webgen::{PopulationConfig, WebPopulation};

    fn stats() -> OverPermissionStats {
        let pop = WebPopulation::new(PopulationConfig {
            seed: 7,
            size: 8_000,
        });
        let ds = Crawler::new(CrawlConfig::default()).crawl(&pop);
        unused_delegations(&ds)
    }

    #[test]
    fn youtube_and_livechat_lead_like_the_paper() {
        let s = stats();
        let ranked = s.ranked();
        let top: Vec<&str> = ranked.iter().take(4).map(|(site, _)| *site).collect();
        assert!(top.contains(&"youtube.com"), "top = {top:?}");
        assert!(top.contains(&"livechatinc.com"), "top = {top:?}");
    }

    #[test]
    fn youtube_unused_is_exactly_the_sensor_pair() {
        let s = stats();
        let yt = &s.rows["youtube.com"];
        assert_eq!(
            yt.unused,
            BTreeSet::from([Permission::Accelerometer, Permission::Gyroscope]),
            "{:?}",
            yt.unused
        );
    }

    #[test]
    fn livechat_unused_matches_paper_triple() {
        let s = stats();
        let lc = &s.rows["livechatinc.com"];
        // Paper: camera, microphone, clipboard-read — clipboard-write and
        // display-capture are covered by the bundle's plugin stubs, and
        // PiP/fullscreen/autoplay are out of scope.
        assert_eq!(
            lc.unused,
            BTreeSet::from([
                Permission::Camera,
                Permission::Microphone,
                Permission::ClipboardRead,
            ]),
            "{:?}",
            lc.unused
        );
    }

    #[test]
    fn used_widgets_are_absent() {
        let s = stats();
        // Stripe uses payment; whereby uses capture; ad networks use their
        // ad permissions — none should be flagged.
        for site in [
            "stripe.com",
            "whereby.com",
            "googlesyndication.com",
            "doubleclick.net",
        ] {
            assert!(
                !s.rows.contains_key(site),
                "{site} flagged: {:?}",
                s.rows.get(site)
            );
        }
    }

    #[test]
    fn long_tail_support_widgets_flagged() {
        let s = stats();
        // At this population size the bigger tail widgets should appear.
        assert!(s.rows.contains_key("razorpay.com") || s.rows.contains_key("ladesk.com"));
        assert!(s.total_affected > 0);
        let text = s.table(10).render();
        assert!(text.contains("youtube.com"));
    }

    #[test]
    fn facebook_affected_is_small_share_of_its_delegations() {
        let s = stats();
        // 92% of facebook embeds show usage, so facebook either doesn't
        // appear or affects far fewer sites than youtube.
        if let Some(fb) = s.rows.get("facebook.com") {
            let yt = &s.rows["youtube.com"];
            assert!(fb.affected_websites < yt.affected_websites);
        }
    }
}
