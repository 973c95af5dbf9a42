//! Analysis: regenerates every table and figure of the paper from a
//! [`crawler::CrawlDataset`].
//!
//! | Paper artifact | Function |
//! |---|---|
//! | §4 crawl funnel + frame census | [`census::frame_census`] |
//! | Table 3 (top external embeds) | [`embeds::top_external_embeds`] |
//! | Table 4 (invoked permissions, 1p/3p) | [`usage::invocation_table`] |
//! | Table 5 (status checks) | [`usage::status_check_table`] |
//! | Table 6 (static detections) | [`usage::static_table`] |
//! | §4.1.4 summary (48.52% / 40.65% / …) | [`usage::usage_summary`] |
//! | Table 7 (embeds with delegation) | [`delegation::delegated_embeds`] |
//! | Table 8 (delegated permissions) | [`delegation::delegated_permissions`] |
//! | §4.2.2 directive mix | [`delegation::directive_mix`] |
//! | Figure 2 (header adoption) | [`headers::header_adoption`] |
//! | Table 9 (top-level directives) | [`headers::top_level_directives`] |
//! | §4.3.2 embedded directive mix | [`headers::embedded_directive_mix`] |
//! | §4.3.3 misconfigurations | [`headers::misconfigurations`] |
//! | Tables 10/13 (over-permissioned embeds) | [`overpermission::unused_delegations`] |
//! | Table 12 (interaction study) | [`validation::interaction_study`] |
//! | §6.2 exposure (extension) | [`vulnerability::local_scheme_exposure`] |
//!
//! All counters follow the paper's counting rules: first occurrence per
//! permission per frame, first-party = script site equals frame site
//! (inline scripts are first-party), and local documents are excluded
//! from header statistics.
//!
//! Every table folds one per-record view that derives each shared fact
//! of a frame once — the party of every invocation, the static-scan
//! findings, the parsed `allow` attribute and the validated header —
//! so adding a table that reads them costs no second derivation.

pub mod census;
pub mod completeness;
pub mod delegation;
pub mod embeds;
pub mod headers;
pub mod intern;
pub mod overpermission;
pub mod paper;
pub mod prompts;
pub mod report;
pub mod stream;
pub mod table;
pub mod usage;
pub mod validation;
mod view;
pub mod vulnerability;
