//! The `Permissions-Policy` response header.
//!
//! Parsing happens in two phases, mirroring Chromium:
//!
//! 1. strict RFC 8941 dictionary parsing — any syntax error makes the
//!    browser drop the **complete** header ([`HeaderParseError`]), the
//!    §4.3.3 "syntax error" class;
//! 2. semantic interpretation of each member into an [`Allowlist`] —
//!    unrecognized feature names and unrecognized allowlist tokens are
//!    *ignored* (the policy still applies for the rest), but they are
//!    retained on the parse result so [`crate::validate`] can count them as
//!    misconfigurations.

use serde::{Deserialize, Serialize};
use std::fmt;

use registry::Permission;

use crate::allowlist::{Allowlist, AllowlistMember};
use crate::structured::{self, BareItem, MemberValue};

/// The whole header failed to parse; the browser ignores it entirely and
/// the document falls back to default allowlists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeaderParseError {
    /// Byte offset of the failure.
    pub position: usize,
    /// Reason from the structured-field parser.
    pub reason: &'static str,
}

impl fmt::Display for HeaderParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Permissions-Policy header dropped: {} (byte {})",
            self.reason, self.position
        )
    }
}

impl std::error::Error for HeaderParseError {}

/// An allowlist member that the browser ignored, kept for the
/// misconfiguration analysis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IgnoredMember {
    /// A token that is not `*`/`self`, e.g. `none`, `src`, `'self'`, or an
    /// unquoted URL (URLs parse as tokens because `:` and `/` are token
    /// characters).
    UnrecognizedToken(String),
    /// A quoted string that is not a serializable origin.
    InvalidOrigin(String),
    /// A number or boolean.
    NonStringItem(String),
}

/// One parsed directive: a feature name and its allowlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Directive {
    /// The feature token as written (always lowercase per SF keys).
    pub feature: String,
    /// The known permission, if the feature name is recognized.
    pub permission: Option<Permission>,
    /// The effective allowlist (unrecognized members dropped).
    pub allowlist: Allowlist,
    /// Members the browser ignored.
    pub ignored: Vec<IgnoredMember>,
}

/// A successfully parsed `Permissions-Policy` header.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeclaredPolicy {
    directives: Vec<Directive>,
}

impl DeclaredPolicy {
    /// Creates a policy from directives (used by the generator and tools).
    pub fn from_directives(directives: Vec<Directive>) -> DeclaredPolicy {
        DeclaredPolicy { directives }
    }

    /// Convenience constructor for tools: a directive per `(permission,
    /// allowlist)` pair.
    pub fn from_pairs(pairs: Vec<(Permission, Allowlist)>) -> DeclaredPolicy {
        DeclaredPolicy {
            directives: pairs
                .into_iter()
                .map(|(p, allowlist)| Directive {
                    feature: p.token().to_string(),
                    permission: Some(p),
                    allowlist,
                    ignored: vec![],
                })
                .collect(),
        }
    }

    /// All directives, in header order.
    pub fn directives(&self) -> &[Directive] {
        &self.directives
    }

    /// The allowlist declared for `permission`, if any.
    pub fn get(&self, permission: Permission) -> Option<&Allowlist> {
        self.directives
            .iter()
            .find(|d| d.permission == Some(permission))
            .map(|d| &d.allowlist)
    }

    /// Whether any directive was declared for `permission`.
    pub fn declares(&self, permission: Permission) -> bool {
        self.get(permission).is_some()
    }

    /// Number of declared directives (the paper's "average of 10.01
    /// permissions in the header" metric counts these).
    pub fn len(&self) -> usize {
        self.directives.len()
    }

    /// Whether no directives were declared.
    pub fn is_empty(&self) -> bool {
        self.directives.is_empty()
    }

    /// Serializes back to header syntax.
    pub fn to_header_value(&self) -> String {
        self.directives
            .iter()
            .map(|d| format!("{}={}", d.feature, d.allowlist.to_header_value()))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for DeclaredPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_header_value())
    }
}

fn interpret_item(item: &BareItem, allowlist: &mut Allowlist, ignored: &mut Vec<IgnoredMember>) {
    match item {
        BareItem::Token(t) if t == "*" => {
            cov!(40);
            allowlist.push(AllowlistMember::Star);
        }
        BareItem::Token(t) if t == "self" => {
            cov!(41);
            allowlist.push(AllowlistMember::SelfOrigin);
        }
        BareItem::Token(t) => {
            cov!(42);
            ignored.push(IgnoredMember::UnrecognizedToken(t.clone()));
        }
        BareItem::String(s) => match weburl::Url::parse(s) {
            Ok(url) if url.host().is_some() => {
                cov!(43);
                allowlist.push(AllowlistMember::Origin(url.origin().to_string()));
            }
            _ => {
                cov!(44);
                ignored.push(IgnoredMember::InvalidOrigin(s.clone()));
            }
        },
        other => {
            cov!(45);
            ignored.push(IgnoredMember::NonStringItem(other.to_string()));
        }
    }
}

/// Parses a `Permissions-Policy` header value.
pub fn parse_permissions_policy(value: &str) -> Result<DeclaredPolicy, HeaderParseError> {
    let dict = structured::parse_dictionary(value).map_err(|e| {
        cov!(46);
        HeaderParseError {
            position: e.position,
            reason: e.reason,
        }
    })?;
    let mut directives = Vec::with_capacity(dict.len());
    for (feature, member) in dict {
        let mut allowlist = Allowlist::empty();
        let mut ignored = Vec::new();
        match &member {
            MemberValue::Item(item, _params) => {
                cov!(47);
                interpret_item(item, &mut allowlist, &mut ignored);
                // A bare `feature` (boolean true) means "no allowlist given";
                // Chromium treats it as `self`.
                if let BareItem::Boolean(true) = item {
                    cov!(48);
                    ignored.pop();
                    allowlist.push(AllowlistMember::SelfOrigin);
                }
            }
            MemberValue::InnerList(items, _params) => {
                cov!(49);
                for (item, _p) in items {
                    interpret_item(item, &mut allowlist, &mut ignored);
                }
            }
        }
        let permission = Permission::from_token(&feature);
        if permission.is_none() {
            cov!(50);
        }
        directives.push(Directive {
            feature,
            permission,
            allowlist,
            ignored,
        });
    }
    Ok(DeclaredPolicy { directives })
}

/// The policy a document's response headers declare, by Chromium's
/// header precedence (§2.2.6): a syntactically valid `Permissions-Policy`
/// header wins; an invalid one is dropped entirely; `Feature-Policy`
/// applies only when no `Permissions-Policy` header is present.
pub fn effective_declared(pp: Option<&str>, fp: Option<&str>) -> DeclaredPolicy {
    if let Some(pp) = pp {
        return parse_permissions_policy(pp).unwrap_or_default();
    }
    fp.map(crate::feature_policy::parse_feature_policy)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use weburl::Url;

    #[test]
    fn disable_directive() {
        let p = parse_permissions_policy("camera=()").unwrap();
        assert!(p.get(Permission::Camera).unwrap().is_empty());
    }

    #[test]
    fn self_and_origin_directive() {
        let p = parse_permissions_policy(r#"geolocation=(self "https://maps.example")"#).unwrap();
        let list = p.get(Permission::Geolocation).unwrap();
        assert!(list.contains_self());
        let me = Url::parse("https://example.org/").unwrap().origin();
        let maps = Url::parse("https://maps.example/").unwrap().origin();
        assert!(list.matches(&maps, &me, None));
    }

    #[test]
    fn star_item_directive() {
        let p = parse_permissions_policy("fullscreen=*").unwrap();
        assert!(p.get(Permission::Fullscreen).unwrap().is_star());
    }

    #[test]
    fn star_inside_inner_list() {
        let p = parse_permissions_policy("fullscreen=(*)").unwrap();
        assert!(p.get(Permission::Fullscreen).unwrap().is_star());
    }

    #[test]
    fn unknown_feature_is_kept_but_unresolved() {
        let p = parse_permissions_policy("hovercraft=()").unwrap();
        assert_eq!(p.directives().len(), 1);
        assert_eq!(p.directives()[0].permission, None);
    }

    #[test]
    fn unrecognized_tokens_are_ignored_not_fatal() {
        // `none` is Feature-Policy vocabulary; in Permissions-Policy it is
        // just an unknown token (a §4.3.3 semantic misconfiguration).
        let p = parse_permissions_policy("camera=(none)").unwrap();
        let d = &p.directives()[0];
        assert!(d.allowlist.is_empty());
        assert_eq!(
            d.ignored,
            vec![IgnoredMember::UnrecognizedToken("none".to_string())]
        );
    }

    #[test]
    fn unquoted_url_is_unrecognized_token() {
        // URLs parse as tokens (`:` and `/` are tchars); the browser drops
        // them silently — the "missing double quotes" misconfiguration.
        let p = parse_permissions_policy("geolocation=(self https://maps.example)").unwrap();
        let d = &p.directives()[0];
        assert!(d.allowlist.contains_self());
        assert_eq!(d.allowlist.members().len(), 1);
        assert_eq!(
            d.ignored,
            vec![IgnoredMember::UnrecognizedToken(
                "https://maps.example".to_string()
            )]
        );
    }

    #[test]
    fn quoted_non_origin_is_invalid_origin() {
        let p = parse_permissions_policy(r#"camera=("not a url")"#).unwrap();
        assert_eq!(
            p.directives()[0].ignored,
            vec![IgnoredMember::InvalidOrigin("not a url".to_string())]
        );
    }

    #[test]
    fn feature_policy_syntax_drops_whole_header() {
        let err = parse_permissions_policy("camera 'none'; geolocation 'self'").unwrap_err();
        assert!(err.position > 0);
    }

    #[test]
    fn trailing_comma_drops_whole_header() {
        assert!(parse_permissions_policy("camera=(),").is_err());
    }

    #[test]
    fn bare_feature_means_self() {
        let p = parse_permissions_policy("camera").unwrap();
        assert!(p.get(Permission::Camera).unwrap().contains_self());
    }

    #[test]
    fn round_trip_serialization() {
        let input = r#"camera=(), geolocation=(self "https://maps.example"), fullscreen=*"#;
        let p = parse_permissions_policy(input).unwrap();
        let reparsed = parse_permissions_policy(&p.to_header_value()).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn sixteen_digit_integer_invalidates_header() {
        // Minimal counterexample from the difftest harness: the pre-fix
        // structured-field parser accepted `x=1234567890123456` (16
        // digits), so `camera=()` stayed in force, while RFC 8941 §4.2.4
        // (and Chromium) drop the whole header and leave camera at its
        // default allowlist.
        assert!(parse_permissions_policy("camera=(), x=1234567890123456").is_err());
        assert!(parse_permissions_policy("camera=(), x=1.2345").is_err());
        assert!(parse_permissions_policy("camera=(), x=1.").is_err());
    }

    #[test]
    fn directive_count() {
        let p = parse_permissions_policy("camera=(), microphone=(), geolocation=()").unwrap();
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }
}
