//! Permissions Policy engine.
//!
//! Implements the W3C Permissions Policy specification as the paper's
//! measurement observes it in Chromium:
//!
//! * [`header`] — the `Permissions-Policy` response header
//!   (RFC 8941 structured-field dictionary syntax; any syntax error drops
//!   the *complete* header, which is the §4.3.3 failure mode),
//! * [`feature_policy`] — the deprecated `Feature-Policy` header syntax,
//!   still enforced by Chromium when no `Permissions-Policy` is present,
//! * [`allow_attr`] — the `<iframe allow>` attribute,
//! * [`allowlist`] — allowlist values and origin matching,
//! * [`engine`] — the processing model: container policies, inherited
//!   policies, *is feature enabled in document for origin*, and permission
//!   delegation — including a switch reproducing the local-scheme
//!   inheritance bug (§6.2, Table 11),
//! * [`csp`] — the Content-Security-Policy `frame-src` slice that gates
//!   the §6.2 attack's injection vector,
//! * [`validate`] — the misconfiguration taxonomy the paper counts
//!   (§4.3.3): syntax errors vs. semantic issues like unrecognized tokens,
//!   unquoted URLs, contradictory directives and origins-without-self.
//!
//! # Example
//!
//! ```
//! use policy::header::parse_permissions_policy;
//! use policy::allowlist::AllowlistMember;
//! use registry::Permission;
//! use weburl::Url;
//!
//! let parsed = parse_permissions_policy(
//!     r#"camera=(), geolocation=(self "https://maps.example"), fullscreen=*"#,
//! ).unwrap();
//! let camera = parsed.get(Permission::Camera).unwrap();
//! assert!(camera.is_empty()); // camera=() disables the feature everywhere
//!
//! let geo = parsed.get(Permission::Geolocation).unwrap();
//! let self_origin = Url::parse("https://example.org/").unwrap().origin();
//! assert!(geo.matches(&self_origin, &self_origin, None));
//! let maps = Url::parse("https://maps.example/").unwrap().origin();
//! assert!(geo.matches(&maps, &self_origin, None));
//! assert_eq!(geo.members().len(), 2);
//! let _ = AllowlistMember::Star; // re-exported member type
//! ```

// Coverage instrumentation point for the fuzzer (crates/difftest).  Sites
// 0-39 belong to `structured`, 40-59 to `header`, 60-79 to `allow_attr`,
// 80-95 to `feature_policy`.  Expands to nothing unless the `coverage`
// feature is enabled; defined before the `mod` items so textual macro
// scoping makes it visible inside them.
#[cfg(feature = "coverage")]
macro_rules! cov {
    ($site:expr) => {
        covmap::hit(covmap::POLICY_BASE, $site)
    };
}
#[cfg(not(feature = "coverage"))]
macro_rules! cov {
    ($site:expr) => {};
}

pub mod allow_attr;
pub mod allowlist;
pub mod csp;
pub mod engine;
pub mod feature_policy;
pub mod header;
pub mod structured;
pub mod validate;

pub use allow_attr::{parse_allow_attribute, AllowAttribute, Delegation, DelegationDirective};
pub use allowlist::{Allowlist, AllowlistMember};
pub use csp::Csp;
pub use engine::{DocumentPolicy, FramingContext, LocalSchemeBehavior, PolicyEngine};
pub use header::{effective_declared, parse_permissions_policy, DeclaredPolicy, HeaderParseError};
pub use validate::{validate_header, HeaderIssue, HeaderReport};
