//! The per-record fact view every table folds.
//!
//! Several tables read the same facts of a frame: Table 4, the §4.1.4
//! summary and Table 10 read which permissions its scripts invoked and
//! whether each calling script is first- or third-party (§4.1: the
//! script's site against the frame's site); Table 6, the summary and
//! Table 10 read its static-scan findings (§3.1.1); Tables 7, 8 and 10
//! and the purpose groups read its parsed `allow` attribute; and
//! Table 9, the embedded directive mix, the misconfiguration census and
//! the exposure study read its parsed Permissions-Policy header.
//! [`FactBuffer::view`] derives each of those facts once per record, and
//! every table folds the resulting [`RecordView`] instead of deriving
//! them again from the raw [`SiteRecord`].
//!
//! Only the facts of the columns a selection projects
//! ([`crate::stream::TableSelection::columns`]) are derived, so an
//! unselected table still costs nothing: that one mapping decides both
//! what a columnar read decodes and what the view derives. Fields the
//! tables only count (frame flags, header presence, prompts) are read
//! raw, through the view's borrow of the record.
//!
//! The view caches nothing across records. Script sites in particular
//! are looked up per invocation with [`weburl::site_domain`], which
//! borrows from the URL. A per-thread URL → site memo was tried and
//! dropped: the shard workers start on fresh threads every pass, so it
//! started cold each time, and it grew with every first-party URL,
//! raising the analyze workload's peak memory.

use browser::{FrameRecord, PageVisit};
use crawler::{ColumnSet, CrawlDataset, SiteOutcome, SiteRecord};
use policy::{
    parse_allow_attribute, validate_header, AllowAttribute, DeclaredPolicy, HeaderReport,
};
use registry::PermissionSet;

use crate::usage::UsageKeys;

/// One table's fold, merge and finish over the per-record view: the
/// crate-internal contract [`crate::stream::TableSet`] composes into its
/// public [`crate::stream::Accumulator`].
pub(crate) trait TableFold: Default {
    /// The presentation-ready statistics the table produces.
    type Output;

    /// Consumes one record's view.
    fn fold(&mut self, view: &RecordView<'_>);

    /// Combines state folded over another partition of the dataset.
    fn merge(&mut self, other: Self);

    /// Derives the final statistics from the merged state.
    fn finish(self) -> Self::Output;
}

/// Folds an in-memory dataset into one table through the same view the
/// streaming engine builds (every fact derived: the batch helpers do
/// not know a projection).
pub(crate) fn fold_dataset<T: TableFold>(dataset: &CrawlDataset) -> T::Output {
    let mut table = T::default();
    let mut facts = FactBuffer::new(ColumnSet::ALL);
    for record in &dataset.records {
        table.fold(&facts.view(record));
    }
    table.finish()
}

/// The facts of one frame, derived once per record.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrameFacts {
    /// Usage keys some first-party invocation touched (`INVOCATIONS`).
    pub first_party: UsageKeys,
    /// Usage keys some third-party invocation touched (`INVOCATIONS`).
    pub third_party: UsageKeys,
    /// Whether an invocation went through the deprecated Feature Policy
    /// API (`INVOCATIONS`).
    pub feature_policy_api: bool,
    /// Permissions the static scan finds in the frame's scripts
    /// (`SCRIPTS`).
    pub statics: PermissionSet,
    /// The parsed `allow` attribute of the frame's `<iframe>` (`ATTRS`).
    pub allow: Option<AllowAttribute>,
    /// The validation report of the Permissions-Policy header
    /// (`HEADERS`); its `policy` is the parsed header.
    pub header: Option<HeaderReport>,
}

impl FrameFacts {
    fn derive(frame: &FrameRecord, columns: ColumnSet) -> FrameFacts {
        let mut facts = FrameFacts::default();
        if columns.contains(ColumnSet::INVOCATIONS) {
            let frame_site = frame.site.as_deref();
            for invocation in &frame.invocations {
                let keys = UsageKeys::of(invocation);
                if is_third_party(frame_site, invocation.script_url.as_deref()) {
                    facts.third_party |= keys;
                } else {
                    facts.first_party |= keys;
                }
                facts.feature_policy_api |= invocation.via_feature_policy_api;
            }
        }
        if columns.contains(ColumnSet::SCRIPTS) {
            for script in &frame.scripts {
                facts.statics |= staticscan::scan_permissions(&script.source);
            }
        }
        if columns.contains(ColumnSet::ATTRS) {
            facts.allow = frame
                .iframe_attrs
                .as_ref()
                .and_then(|attrs| attrs.allow.as_deref())
                .map(parse_allow_attribute);
        }
        if columns.contains(ColumnSet::HEADERS) {
            facts.header = frame
                .permissions_policy_header
                .as_deref()
                .map(validate_header);
        }
        facts
    }

    /// Every usage key the frame's invocations touched.
    pub fn usage(&self) -> UsageKeys {
        self.first_party | self.third_party
    }

    /// The parsed Permissions-Policy header, if it parsed.
    pub fn policy(&self) -> Option<&DeclaredPolicy> {
        self.header.as_ref()?.policy.as_ref()
    }
}

/// Whether an invocation's calling script is third-party to its frame
/// (the paper: "the site of the script differs from the site of the
/// frame"). Calls with no script URL in the trace, or a URL with no
/// site, are first-party; any script with a site is third-party to a
/// frame without one (a local document).
fn is_third_party(frame_site: Option<&str>, script_url: Option<&str>) -> bool {
    match script_url.and_then(weburl::site_domain) {
        Some(script_site) => frame_site != Some(&*script_site),
        None => false,
    }
}

/// Storage for one record's frame facts at a time, reused from record
/// to record so that building a view allocates only what parsing
/// `allow` attributes and headers does.
#[derive(Debug, Clone)]
pub(crate) struct FactBuffer {
    columns: ColumnSet,
    facts: Vec<FrameFacts>,
}

impl Default for FactBuffer {
    fn default() -> FactBuffer {
        FactBuffer::new(ColumnSet::META_ONLY)
    }
}

impl FactBuffer {
    /// A buffer deriving the facts of `columns`.
    pub fn new(columns: ColumnSet) -> FactBuffer {
        FactBuffer {
            columns,
            facts: Vec::new(),
        }
    }

    /// Derives `record`'s facts and returns its view. Facts exist only
    /// for a successful visit, the population every table but the
    /// funnel and the completeness census counts.
    pub fn view<'a>(&'a mut self, record: &'a SiteRecord) -> RecordView<'a> {
        let columns = self.columns;
        let visit = record
            .visit
            .as_ref()
            .filter(|_| record.outcome == SiteOutcome::Success);
        self.facts.clear();
        if let Some(visit) = visit {
            self.facts.extend(
                visit
                    .frames
                    .iter()
                    .map(|frame| FrameFacts::derive(frame, columns)),
            );
        }
        RecordView {
            record,
            visit,
            facts: &self.facts,
        }
    }
}

/// One record with its derived frame facts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordView<'a> {
    record: &'a SiteRecord,
    visit: Option<&'a PageVisit>,
    facts: &'a [FrameFacts],
}

impl<'a> RecordView<'a> {
    /// The raw record.
    pub fn record(&self) -> &'a SiteRecord {
        self.record
    }

    /// The visit, if the record is a successful one.
    pub fn visit(&self) -> Option<&'a PageVisit> {
        self.visit
    }

    /// Every frame of a successful visit, with its facts, in record
    /// order.
    pub fn frames(&self) -> impl Iterator<Item = (&'a FrameRecord, &'a FrameFacts)> {
        self.visit
            .into_iter()
            .flat_map(|visit| &visit.frames)
            .zip(self.facts)
    }

    /// The embedded (non-top-level) frames, with their facts.
    pub fn embedded(&self) -> impl Iterator<Item = (&'a FrameRecord, &'a FrameFacts)> {
        self.frames().filter(|(frame, _)| !frame.is_top_level)
    }

    /// The top-level frame, with its facts.
    pub fn top(&self) -> Option<(&'a FrameRecord, &'a FrameFacts)> {
        self.frames().find(|(frame, _)| frame.is_top_level)
    }

    /// The top-level frame's site: an embed with another site is
    /// external.
    pub fn own_site(&self) -> Option<&'a str> {
        self.top().and_then(|(frame, _)| frame.site.as_deref())
    }

    /// The site of every embedded frame that has one other than
    /// [`RecordView::own_site`] and that `keep` selects, each site once,
    /// in frame order. A site counts at its first selected frame; the
    /// check scans the earlier frames instead of collecting a set, since
    /// a record has a handful of frames (at most the browser's frame
    /// cap).
    pub fn external_sites(
        &self,
        keep: impl Fn(&'a FrameRecord, &'a FrameFacts) -> bool + Copy,
    ) -> impl Iterator<Item = &'a str> {
        let own_site = self.own_site();
        let external = move |(frame, facts): (&'a FrameRecord, &'a FrameFacts)| {
            let site = frame.site.as_deref()?;
            (!frame.is_top_level && Some(site) != own_site && keep(frame, facts)).then_some(site)
        };
        let view = *self;
        self.frames().enumerate().filter_map(move |(i, entry)| {
            let site = external(entry)?;
            let seen = view
                .frames()
                .take(i)
                .any(|earlier| external(earlier) == Some(site));
            (!seen).then_some(site)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::{CrawlConfig, Crawler};
    use webgen::{PopulationConfig, WebPopulation};

    /// The borrowed lookup the view attributes parties with answers
    /// exactly what a full parse does, on every script URL of the seed-7
    /// 20k crawl (the one the golden digests cover): the ones
    /// invocations carry and the ones scripts load from.
    #[test]
    fn site_lookup_matches_url_parse_on_seed7_script_urls() {
        let pop = WebPopulation::new(PopulationConfig {
            seed: 7,
            size: 20_000,
        });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let mut checked = 0;
        for frame in dataset
            .records
            .iter()
            .filter_map(|r| r.visit.as_ref())
            .flat_map(|v| &v.frames)
        {
            let invoked = frame.invocations.iter().map(|i| i.script_url.as_deref());
            let loaded = frame.scripts.iter().map(|s| s.url.as_deref());
            for url in invoked.chain(loaded).flatten() {
                let parsed = weburl::Url::parse(url)
                    .ok()
                    .and_then(|u| u.site())
                    .map(|s| s.registrable_domain().to_owned());
                assert_eq!(
                    weburl::site_domain(url).map(|d| d.into_owned()),
                    parsed,
                    "{url}"
                );
                checked += 1;
            }
        }
        assert!(checked > 10_000, "only {checked} script URLs");
    }

    /// Facts follow the projection: a column the selection does not read
    /// derives nothing.
    #[test]
    fn facts_follow_the_projected_columns() {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size: 300 });
        let dataset = Crawler::new(CrawlConfig::default()).crawl(&pop);
        let mut all = FactBuffer::new(ColumnSet::ALL);
        let mut none = FactBuffer::new(ColumnSet::FRAMES);
        let (mut usage, mut statics, mut allows, mut headers) = (0, 0, 0, 0);
        for record in &dataset.records {
            for (_, facts) in all.view(record).frames() {
                usage += usize::from(!facts.usage().is_empty());
                statics += usize::from(!facts.statics.is_empty());
                allows += usize::from(facts.allow.is_some());
                headers += usize::from(facts.header.is_some());
            }
            for (_, facts) in none.view(record).frames() {
                assert!(facts.usage().is_empty() && facts.statics.is_empty());
                assert!(facts.allow.is_none() && facts.header.is_none());
            }
        }
        assert!(usage > 0 && statics > 0 && allows > 0 && headers > 0);
    }
}
