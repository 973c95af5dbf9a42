//! Streaming single-pass analysis over sharded JSONL databases.
//!
//! Every analysis table in this crate is built from a fold/merge
//! accumulator: `fold` consumes one record at a time, `merge` combines
//! accumulators folded over disjoint partitions, and `finish` derives
//! the presentation-ready statistics (sorts, averages, shares) from the
//! merged integer state. The [`Accumulator`] trait names that contract
//! over [`SiteRecord`]s. [`TableSet`] implements it by composing every
//! requested table into one accumulator, so a dataset is read exactly
//! once: it derives each record's shared frame facts once, into a view
//! every table folds. [`fold_shards`] drives the composed accumulator
//! over a set of shard files with a worker pool.
//!
//! # Determinism
//!
//! The output is byte-identical to the in-memory implementation no
//! matter how records are partitioned into shards or how many workers
//! run, because every accumulator observes two rules:
//!
//! 1. `fold` only adds to integer counters, `BTreeMap`-keyed tallies and
//!    rank/permission sets — all order-insensitive, partition-additive
//!    state. Derived floats and ranked orderings appear only in
//!    `finish`, after all partitions merge.
//! 2. Shard accumulators merge in shard-index order on one thread, and
//!    every ranking uses either a total order (count desc, then key asc)
//!    or a stable sort over `BTreeMap` iteration order.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crawler::{AnyRecordStream, ColumnSet, CrawlFunnel, SiteRecord, SkipReport, StreamMode};

use crate::census::FrameCensus;
use crate::completeness::CompletenessCensus;
use crate::delegation::{
    DelegatedEmbedAcc, DelegatedEmbedStats, DelegatedPermissionStats, PurposeGroupAcc,
    PurposeGroupStats,
};
use crate::embeds::{EmbedAcc, EmbedStats};
use crate::headers::{
    EmbeddedDirectiveMix, EmbeddedDirectiveMixAcc, HeaderAdoption, MisconfigStats,
    TopLevelDirectiveAcc, TopLevelDirectiveStats,
};
use crate::overpermission::{OverPermissionAcc, OverPermissionStats};
use crate::prompts::PromptStats;
use crate::usage::{
    InvocationStats, StaticStats, StatusCheckAcc, StatusCheckStats, UsageSummary, UsageSummaryAcc,
};
use crate::view::{FactBuffer, RecordView, TableFold};
use crate::vulnerability::{ExposureAcc, ExposureStats};

/// The fold/merge contract over raw records, which [`TableSet`]
/// implements; every table inside it keeps the same laws over the
/// per-record view.
///
/// Laws the engine relies on (and the equivalence suite asserts):
///
/// - *Fold/merge consistency*: folding records `a ++ b` into one
///   accumulator equals folding `a` and `b` separately and merging.
/// - *Finish determinism*: `finish` is a pure function of the merged
///   state — no iteration-order or partition artifacts survive into the
///   output.
pub trait Accumulator: Send + Sized {
    /// The presentation-ready statistics this accumulator produces.
    type Output;

    /// Consumes one site record.
    fn fold(&mut self, record: &SiteRecord);

    /// Combines state folded over another partition of the dataset.
    fn merge(&mut self, other: Self);

    /// Derives the final statistics from the merged state.
    fn finish(self) -> Self::Output;
}

/// Tables whose accumulator *is* the output (pure additive counters).
macro_rules! identity_table {
    ($($t:ty),+ $(,)?) => {$(
        impl TableFold for $t {
            type Output = $t;
            fn fold(&mut self, view: &RecordView<'_>) {
                <$t>::fold(self, view);
            }
            fn merge(&mut self, other: Self) {
                <$t>::merge(self, other);
            }
            fn finish(self) -> Self {
                self
            }
        }
    )+};
}

/// Tables with a distinct working state finalized into an output type.
macro_rules! finishing_table {
    ($($t:ty => $out:ty),+ $(,)?) => {$(
        impl TableFold for $t {
            type Output = $out;
            fn fold(&mut self, view: &RecordView<'_>) {
                <$t>::fold(self, view);
            }
            fn merge(&mut self, other: Self) {
                <$t>::merge(self, other);
            }
            fn finish(self) -> $out {
                <$t>::finish(self)
            }
        }
    )+};
}

/// The crawl funnel counts raw outcomes (it lives in `crawler`, which
/// knows no view).
impl TableFold for CrawlFunnel {
    type Output = CrawlFunnel;
    fn fold(&mut self, view: &RecordView<'_>) {
        CrawlFunnel::fold(self, view.record());
    }
    fn merge(&mut self, other: Self) {
        CrawlFunnel::merge(self, other);
    }
    fn finish(self) -> Self {
        self
    }
}

identity_table!(
    FrameCensus,
    CompletenessCensus,
    InvocationStats,
    StaticStats,
    DelegatedPermissionStats,
    HeaderAdoption,
    MisconfigStats,
    PromptStats,
);

finishing_table!(
    DelegatedEmbedAcc => DelegatedEmbedStats,
    EmbedAcc => EmbedStats,
    StatusCheckAcc => StatusCheckStats,
    UsageSummaryAcc => UsageSummary,
    TopLevelDirectiveAcc => TopLevelDirectiveStats,
    EmbeddedDirectiveMixAcc => EmbeddedDirectiveMix,
    OverPermissionAcc => OverPermissionStats,
    PurposeGroupAcc => PurposeGroupStats,
    ExposureAcc => ExposureStats,
);

/// Which tables a [`TableSet`] computes. Unselected tables cost nothing:
/// their accumulator is never constructed and their fold is never run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableSelection {
    /// §4 crawl funnel.
    pub funnel: bool,
    /// §4 frame census.
    pub census: bool,
    /// Data-completeness census.
    pub completeness: bool,
    /// Table 3: top external embeds.
    pub embeds: bool,
    /// Table 4: invoked permissions.
    pub invocations: bool,
    /// Table 5: status checks.
    pub status_checks: bool,
    /// Table 6: static detections.
    pub statics: bool,
    /// §4.1.4 usage summary.
    pub summary: bool,
    /// Table 7: embeds with delegation.
    pub delegated_embeds: bool,
    /// Table 8 + §4.2.2 directive mix (one shared accumulator).
    pub delegated_permissions: bool,
    /// Figure 2: header adoption.
    pub adoption: bool,
    /// Table 9: top-level directives.
    pub top_level_directives: bool,
    /// §4.3.3 misconfigurations.
    pub misconfigurations: bool,
    /// Tables 10/13: unused delegations.
    pub overpermission: bool,
    /// §4.2.1 purpose groups.
    pub purpose_groups: bool,
    /// §6.2 local-scheme exposure.
    pub exposure: bool,
    /// Prompt-attribution census (report extension; not a CLI table).
    pub prompts: bool,
}

impl TableSelection {
    /// Every CLI table (the `analyze --table all` surface).
    pub fn all() -> TableSelection {
        TableSelection {
            funnel: true,
            census: true,
            completeness: true,
            embeds: true,
            invocations: true,
            status_checks: true,
            statics: true,
            summary: true,
            delegated_embeds: true,
            delegated_permissions: true,
            adoption: true,
            top_level_directives: true,
            misconfigurations: true,
            overpermission: true,
            purpose_groups: true,
            exposure: true,
            prompts: false,
        }
    }

    /// The [`crate::report::full_report`] selection: every report
    /// section, plus the extension analyses when requested.
    pub fn report(extensions: bool) -> TableSelection {
        TableSelection {
            completeness: false,
            purpose_groups: extensions,
            exposure: extensions,
            prompts: extensions,
            ..TableSelection::all()
        }
    }

    /// Resolves a CLI table name (`"all"` or one table). `None` means
    /// the name is unknown.
    pub fn named(table: &str) -> Option<TableSelection> {
        if table == "all" {
            return Some(TableSelection::all());
        }
        let mut s = TableSelection::default();
        match table {
            "funnel" => s.funnel = true,
            "census" => s.census = true,
            "completeness" => s.completeness = true,
            "t3" => s.embeds = true,
            "t4" => s.invocations = true,
            "t5" => s.status_checks = true,
            "t6" => s.statics = true,
            "summary" => s.summary = true,
            "t7" => s.delegated_embeds = true,
            "t8" | "directives" => s.delegated_permissions = true,
            "f2" => s.adoption = true,
            "t9" => s.top_level_directives = true,
            "misconfig" => s.misconfigurations = true,
            "t10" => s.overpermission = true,
            "groups" => s.purpose_groups = true,
            "exposure" => s.exposure = true,
            _ => return None,
        }
        Some(s)
    }

    /// The database columns the selected tables fold over — what a
    /// columnar shard read materializes; everything else is seeked past.
    /// The mapping is audited against each accumulator's `fold` body and
    /// refereed by the equivalence suite: a selective columnar run must
    /// render byte-identically to a full JSONL run of the same table.
    pub fn columns(&self) -> ColumnSet {
        let mut cols = ColumnSet::META_ONLY;
        // funnel: outcomes + "minor error" check on visit.degradations.
        if self.funnel || self.completeness {
            cols = cols | ColumnSet::DEGRADATIONS;
        }
        // Frame-tree walkers.
        if self.census
            || self.embeds
            || self.invocations
            || self.status_checks
            || self.statics
            || self.summary
            || self.delegated_embeds
            || self.delegated_permissions
            || self.adoption
            || self.top_level_directives
            || self.misconfigurations
            || self.overpermission
            || self.purpose_groups
            || self.exposure
        {
            cols = cols | ColumnSet::FRAMES;
        }
        // `allow` attributes (delegation parsing).
        if self.delegated_embeds
            || self.delegated_permissions
            || self.purpose_groups
            || self.overpermission
        {
            cols = cols | ColumnSet::ATTRS;
        }
        // Policy headers.
        if self.adoption || self.top_level_directives || self.misconfigurations || self.exposure {
            cols = cols | ColumnSet::HEADERS;
        }
        // Recorded API invocations.
        if self.invocations || self.status_checks || self.summary || self.overpermission {
            cols = cols | ColumnSet::INVOCATIONS;
        }
        // Script sources (static detections).
        if self.statics || self.summary || self.overpermission {
            cols = cols | ColumnSet::SCRIPTS;
        }
        if self.prompts {
            cols = cols | ColumnSet::PROMPTS;
        }
        cols
    }
}

/// The finished statistics for every selected table. Unselected tables
/// are `None`.
#[derive(Debug, Default)]
pub struct Tables {
    /// §4 crawl funnel.
    pub funnel: Option<CrawlFunnel>,
    /// §4 frame census.
    pub census: Option<FrameCensus>,
    /// Data-completeness census.
    pub completeness: Option<CompletenessCensus>,
    /// Table 3.
    pub embeds: Option<EmbedStats>,
    /// Table 4.
    pub invocations: Option<InvocationStats>,
    /// Table 5.
    pub status_checks: Option<StatusCheckStats>,
    /// Table 6.
    pub statics: Option<StaticStats>,
    /// §4.1.4 summary.
    pub summary: Option<UsageSummary>,
    /// Table 7.
    pub delegated_embeds: Option<DelegatedEmbedStats>,
    /// Table 8 + directive mix.
    pub delegated_permissions: Option<DelegatedPermissionStats>,
    /// Figure 2.
    pub adoption: Option<HeaderAdoption>,
    /// Table 9.
    pub top_level_directives: Option<TopLevelDirectiveStats>,
    /// §4.3.3.
    pub misconfigurations: Option<MisconfigStats>,
    /// Tables 10/13.
    pub overpermission: Option<OverPermissionStats>,
    /// §4.2.1 purpose groups.
    pub purpose_groups: Option<PurposeGroupStats>,
    /// §6.2 exposure.
    pub exposure: Option<ExposureStats>,
    /// Prompt census.
    pub prompts: Option<PromptStats>,
}

/// One accumulator per selected table, composed so the whole analysis is
/// a single pass over the records. Each record's frame facts are derived
/// once, for the columns the selection projects, into a buffer the set
/// reuses from record to record.
///
/// `Clone` is part of the live-analysis contract: a snapshot clones the
/// per-shard accumulators at a frontier and merges the clones, leaving
/// the originals resident to keep folding the next delta.
#[derive(Debug, Default, Clone)]
pub struct TableSet {
    facts: FactBuffer,
    funnel: Option<CrawlFunnel>,
    census: Option<FrameCensus>,
    completeness: Option<CompletenessCensus>,
    embeds: Option<EmbedAcc>,
    invocations: Option<InvocationStats>,
    status_checks: Option<StatusCheckAcc>,
    statics: Option<StaticStats>,
    summary: Option<UsageSummaryAcc>,
    delegated_embeds: Option<DelegatedEmbedAcc>,
    delegated_permissions: Option<DelegatedPermissionStats>,
    adoption: Option<HeaderAdoption>,
    top_level_directives: Option<TopLevelDirectiveAcc>,
    misconfigurations: Option<MisconfigStats>,
    overpermission: Option<OverPermissionAcc>,
    purpose_groups: Option<PurposeGroupAcc>,
    exposure: Option<ExposureAcc>,
    prompts: Option<PromptStats>,
}

/// Folds / merges / finishes one optional slot.
macro_rules! each_slot {
    ($macro_op:ident, $self:ident $(, $arg:expr)?) => {
        each_slot!(@ $macro_op, $self $(, $arg)?;
            funnel, census, completeness, embeds, invocations, status_checks,
            statics, summary, delegated_embeds, delegated_permissions,
            adoption, top_level_directives, misconfigurations, overpermission,
            purpose_groups, exposure, prompts);
    };
    (@ fold, $self:ident, $view:expr; $($field:ident),+) => {
        $(if let Some(acc) = &mut $self.$field {
            TableFold::fold(acc, $view);
        })+
    };
    (@ merge, $self:ident, $other:expr; $($field:ident),+) => {
        let other = $other;
        $(if let (Some(acc), Some(theirs)) = (&mut $self.$field, other.$field) {
            TableFold::merge(acc, theirs);
        })+
    };
    (@ finish, $self:ident; $($field:ident),+) => {
        return Tables {
            $($field: $self.$field.map(TableFold::finish),)+
        };
    };
}

impl TableSet {
    /// Builds the accumulators for a selection.
    pub fn new(selection: TableSelection) -> TableSet {
        fn slot<A: Default>(wanted: bool) -> Option<A> {
            wanted.then(A::default)
        }
        TableSet {
            facts: FactBuffer::new(selection.columns()),
            funnel: slot(selection.funnel),
            census: slot(selection.census),
            completeness: slot(selection.completeness),
            embeds: slot(selection.embeds),
            invocations: slot(selection.invocations),
            status_checks: slot(selection.status_checks),
            statics: slot(selection.statics),
            summary: slot(selection.summary),
            delegated_embeds: slot(selection.delegated_embeds),
            delegated_permissions: slot(selection.delegated_permissions),
            adoption: slot(selection.adoption),
            top_level_directives: slot(selection.top_level_directives),
            misconfigurations: slot(selection.misconfigurations),
            overpermission: slot(selection.overpermission),
            purpose_groups: slot(selection.purpose_groups),
            exposure: slot(selection.exposure),
            prompts: slot(selection.prompts),
        }
    }
}

impl Accumulator for TableSet {
    type Output = Tables;

    fn fold(&mut self, record: &SiteRecord) {
        let view = self.facts.view(record);
        each_slot!(fold, self, &view);
    }

    fn merge(&mut self, other: TableSet) {
        each_slot!(merge, self, other);
    }

    #[allow(clippy::needless_return)]
    fn finish(self) -> Tables {
        each_slot!(finish, self);
    }
}

/// What the shard engine observed while folding: lightweight analyze
/// telemetry for the CLI's stderr reporting.
#[derive(Debug, Default)]
pub struct ShardTelemetry {
    /// Shard files read.
    pub shards: usize,
    /// Records folded across all shards.
    pub records: u64,
    /// Per-shard lenient skip reports (non-empty ones only).
    pub skipped: Vec<(PathBuf, SkipReport)>,
}

/// Streams one shard into a fresh accumulator. The shard's format is
/// sniffed per file: JSONL decodes whole records, columnar shards
/// materialize only the projected columns.
fn fold_shard<A: Accumulator>(
    path: &Path,
    mode: StreamMode,
    columns: ColumnSet,
    make: &(impl Fn() -> A + Sync),
) -> io::Result<(A, u64, SkipReport)> {
    let mut stream = AnyRecordStream::open_projected(path, mode, columns)?;
    let mut acc = make();
    let mut records = 0u64;
    for record in &mut stream {
        acc.fold(&record?);
        records += 1;
    }
    Ok((acc, records, stream.into_skip_report()))
}

/// Folds every shard with a pool of `workers` threads and merges the
/// per-shard accumulators in shard-index order, so the result is the
/// same as folding the shards sequentially — and, because every
/// accumulator is partition-insensitive, the same as folding the
/// unsharded dataset. Peak memory is one record per worker plus the
/// accumulators themselves; no shard is ever materialized. `columns`
/// bounds what columnar shards decode (JSONL shards ignore it); pass
/// [`ColumnSet::ALL`] unless the accumulator's reads are known.
pub fn fold_shards<A, F>(
    paths: &[PathBuf],
    mode: StreamMode,
    columns: ColumnSet,
    workers: usize,
    make: F,
) -> io::Result<(A, ShardTelemetry)>
where
    A: Accumulator,
    F: Fn() -> A + Sync,
{
    let workers = workers.clamp(1, paths.len().max(1));
    type Slot<A> = Option<io::Result<(A, u64, SkipReport)>>;
    let slots: Mutex<Vec<Slot<A>>> = Mutex::new((0..paths.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(path) = paths.get(index) else { break };
                let result = fold_shard(path, mode, columns, &make)
                    .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())));
                slots.lock().unwrap()[index] = Some(result);
            });
        }
    });
    let mut merged = make();
    let mut telemetry = ShardTelemetry {
        shards: paths.len(),
        ..ShardTelemetry::default()
    };
    let slots = slots.into_inner().unwrap();
    for (path, slot) in paths.iter().zip(slots) {
        let (acc, records, skip) = slot.expect("every shard index was claimed")?;
        merged.merge(acc);
        telemetry.records += records;
        if skip.skipped > 0 || skip.torn_tail {
            telemetry.skipped.push((path.clone(), skip));
        }
    }
    Ok((merged, telemetry))
}

/// Live analysis over a set of possibly-still-growing shard files:
/// one resident [`crawler::ShardFollower`] + [`TableSet`] pair per shard, so
/// each [`LiveAnalysis::tick`] folds only the records appended since
/// the last one, and each [`LiveAnalysis::snapshot`] is byte-identical
/// to a from-scratch analysis over the same frontier.
///
/// Correctness leans on the two engine laws the equivalence suite pins:
/// per-shard folds are sequential (record order within a shard is
/// preserved), and snapshots merge the cloned per-shard accumulators in
/// shard-index order — exactly what [`fold_shards`] does for a batch
/// run. Combined with the writer's append-or-byte-identical-rewrite
/// contract past the frontier, resident fold state never diverges from
/// a cold re-read.
pub struct LiveAnalysis {
    shards: Vec<LiveShard>,
}

struct LiveShard {
    follower: crawler::ShardFollower,
    set: TableSet,
}

/// A job-wide consistent frontier: one [`crawler::ShardFrontier`] per
/// shard, in shard order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobFrontier {
    /// Per-shard frontiers, in shard-index order.
    pub shards: Vec<crawler::ShardFrontier>,
}

impl JobFrontier {
    /// Total records at the frontier, across all shards.
    pub fn records(&self) -> u64 {
        self.shards.iter().map(|s| s.records).sum()
    }

    /// Total valid-prefix bytes at the frontier, across all shards.
    pub fn bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes).sum()
    }
}

impl LiveAnalysis {
    /// Followers + accumulators for `paths` (typically a job manifest's
    /// shard files, which need not exist yet), folding the tables in
    /// `selection`. Columnar shards are projected down to the columns
    /// the selection reads, same as a batch run.
    pub fn new(
        paths: &[PathBuf],
        format: crawler::DbFormat,
        selection: TableSelection,
    ) -> LiveAnalysis {
        let columns = selection.columns();
        LiveAnalysis {
            shards: paths
                .iter()
                .map(|path| LiveShard {
                    follower: crawler::ShardFollower::new(path, format, columns),
                    set: TableSet::new(selection),
                })
                .collect(),
        }
    }

    /// Polls every shard once, folding newly appended records into the
    /// resident accumulators, and returns the frontier the fold state
    /// now reflects.
    pub fn tick(&mut self) -> io::Result<JobFrontier> {
        let mut frontier = JobFrontier {
            shards: Vec::with_capacity(self.shards.len()),
        };
        for LiveShard { follower, set } in &mut self.shards {
            let shard_frontier = follower.poll(|record| set.fold(record)).map_err(|e| {
                io::Error::new(e.kind(), format!("{}: {e}", follower.path().display()))
            })?;
            frontier.shards.push(shard_frontier);
        }
        Ok(frontier)
    }

    /// The frontier as of the last [`LiveAnalysis::tick`].
    pub fn frontier(&self) -> JobFrontier {
        JobFrontier {
            shards: self.shards.iter().map(|s| s.follower.frontier()).collect(),
        }
    }

    /// Finished tables at the current frontier: clones the per-shard
    /// accumulators, merges the clones in shard order, and finishes the
    /// merge — the resident state keeps folding future ticks.
    pub fn snapshot(&self) -> Tables {
        let mut merged: Option<TableSet> = None;
        for shard in &self.shards {
            match &mut merged {
                None => merged = Some(shard.set.clone()),
                Some(acc) => acc.merge(shard.set.clone()),
            }
        }
        merged.unwrap_or_default().finish()
    }
}

/// The CLI entry point: streams the selected tables out of a set of
/// shard files in one pass per shard, projecting columnar shards down
/// to the columns the selection folds over.
pub fn analyze_shards(
    paths: &[PathBuf],
    mode: StreamMode,
    workers: usize,
    selection: TableSelection,
) -> io::Result<(Tables, ShardTelemetry)> {
    let (set, telemetry) = fold_shards(paths, mode, selection.columns(), workers, || {
        TableSet::new(selection)
    })?;
    Ok((set.finish(), telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::{write_jsonl, CrawlConfig, CrawlDataset, Crawler};
    use webgen::{PopulationConfig, WebPopulation};

    fn dataset(size: u64) -> CrawlDataset {
        let pop = WebPopulation::new(PopulationConfig { seed: 7, size });
        Crawler::new(CrawlConfig::default()).crawl(&pop)
    }

    fn shard_dataset(dataset: &CrawlDataset, shards: usize) -> Vec<CrawlDataset> {
        let mut parts: Vec<CrawlDataset> = (0..shards).map(|_| CrawlDataset::default()).collect();
        for record in &dataset.records {
            parts[(record.rank - 1) as usize % shards]
                .records
                .push(record.clone());
        }
        parts
    }

    /// The fold/merge law, for every table at once: one fold over the
    /// whole dataset, a merge of three striped partitions, and a merge of
    /// one-record partitions finish to the same tables, on the calibrated
    /// population and on the adversarial one (hostile headers, `allow`
    /// values and degraded visits).
    #[test]
    fn fold_merge_equals_single_fold() {
        let selection = TableSelection {
            prompts: true,
            ..TableSelection::all()
        };
        let fold = |records: &[SiteRecord]| {
            let mut set = TableSet::new(selection);
            for record in records {
                set.fold(record);
            }
            set
        };
        let adversarial =
            WebPopulation::new(PopulationConfig { seed: 7, size: 400 }).with_adversarial(true);
        for ds in [
            dataset(800),
            Crawler::new(CrawlConfig::default()).crawl(&adversarial),
        ] {
            let whole = fold(&ds.records).finish();
            let mut striped = TableSet::new(selection);
            for part in shard_dataset(&ds, 3) {
                striped.merge(fold(&part.records));
            }
            let mut singles = TableSet::new(selection);
            for record in &ds.records {
                singles.merge(fold(std::slice::from_ref(record)));
            }
            let whole = format!("{whole:?}");
            assert_eq!(whole, format!("{:?}", striped.finish()));
            assert_eq!(whole, format!("{:?}", singles.finish()));
        }
    }

    #[test]
    fn shard_engine_matches_in_memory_analysis() {
        let ds = dataset(600);
        let dir = std::env::temp_dir().join(format!("po-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("crawl.jsonl");
        let mut paths = Vec::new();
        for (i, part) in shard_dataset(&ds, 4).iter().enumerate() {
            let path = crawler::shard_path(&base, i);
            write_jsonl(part, &path).unwrap();
            paths.push(path);
        }
        for workers in [1, 4] {
            let (tables, telemetry) =
                analyze_shards(&paths, StreamMode::Strict, workers, TableSelection::all()).unwrap();
            assert_eq!(telemetry.records, ds.records.len() as u64);
            assert_eq!(telemetry.shards, 4);
            assert!(telemetry.skipped.is_empty());
            assert_eq!(
                tables.funnel.unwrap().report(),
                ds.funnel().report(),
                "workers = {workers}"
            );
            assert_eq!(
                tables.embeds.unwrap().table(10).render(),
                crate::embeds::top_external_embeds(&ds).table(10).render()
            );
            assert_eq!(
                tables.top_level_directives.unwrap().table(10).render(),
                crate::headers::top_level_directives(&ds).table(10).render()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn selections_project_only_the_columns_their_folds_read() {
        let funnel = TableSelection::named("funnel").unwrap().columns();
        assert!(funnel.contains(ColumnSet::DEGRADATIONS));
        assert!(!funnel.contains(ColumnSet::FRAMES));
        assert!(!funnel.contains(ColumnSet::SCRIPTS));

        let t8 = TableSelection::named("t8").unwrap().columns().normalized();
        assert!(t8.contains(ColumnSet::FRAMES | ColumnSet::ATTRS));
        assert!(!t8.contains(ColumnSet::SCRIPTS));

        let f2 = TableSelection::named("f2").unwrap().columns();
        assert!(f2.contains(ColumnSet::FRAMES | ColumnSet::HEADERS));
        assert!(!f2.contains(ColumnSet::INVOCATIONS));

        let t10 = TableSelection::named("t10").unwrap().columns();
        assert!(t10.contains(
            ColumnSet::FRAMES | ColumnSet::ATTRS | ColumnSet::INVOCATIONS | ColumnSet::SCRIPTS
        ));

        // The full CLI surface reads everything except prompts.
        let all = TableSelection::all().columns();
        assert!(all.contains(
            ColumnSet::FRAMES
                | ColumnSet::ATTRS
                | ColumnSet::HEADERS
                | ColumnSet::INVOCATIONS
                | ColumnSet::SCRIPTS
                | ColumnSet::DEGRADATIONS
        ));
        assert!(!all.contains(ColumnSet::PROMPTS));
    }

    #[test]
    fn columnar_shards_render_identically_to_jsonl_per_table() {
        let ds = dataset(400);
        let dir = std::env::temp_dir().join(format!("po-stream-colsh-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("crawl.jsonl");
        let colsh = dir.join("crawl.colsh");
        write_jsonl(&ds, &jsonl).unwrap();
        crawler::write_colsh(&ds, &colsh).unwrap();
        for table in ["funnel", "census", "t8", "f2", "t10", "summary"] {
            let selection = TableSelection::named(table).unwrap();
            let (from_jsonl, _) = analyze_shards(
                std::slice::from_ref(&jsonl),
                StreamMode::Strict,
                1,
                selection,
            )
            .unwrap();
            let (from_colsh, telemetry) = analyze_shards(
                std::slice::from_ref(&colsh),
                StreamMode::Strict,
                1,
                selection,
            )
            .unwrap();
            assert_eq!(telemetry.records, ds.records.len() as u64);
            assert_eq!(
                format!("{from_jsonl:?}"),
                format!("{from_colsh:?}"),
                "table {table} diverges between formats"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn selection_names_resolve_and_gate_slots() {
        let s = TableSelection::named("t8").unwrap();
        assert!(s.delegated_permissions);
        assert!(!s.funnel);
        assert_eq!(
            TableSelection::named("directives").unwrap(),
            TableSelection::named("t8").unwrap()
        );
        assert!(TableSelection::named("nonsense").is_none());
        let all = TableSelection::named("all").unwrap();
        assert!(all.funnel && all.exposure && !all.prompts);

        let ds = dataset(50);
        let mut set = TableSet::new(TableSelection::named("census").unwrap());
        for record in &ds.records {
            set.fold(record);
        }
        let tables = set.finish();
        assert!(tables.census.is_some());
        assert!(tables.funnel.is_none());
        assert!(tables.overpermission.is_none());
    }
}
