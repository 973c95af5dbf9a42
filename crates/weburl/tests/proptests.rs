//! Property-based tests for URL parsing and site computation.

use proptest::prelude::*;
use std::borrow::Cow;
use std::hash::{Hash, Hasher};

use weburl::{psl, site_domain, Url};

fn label() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,8}[a-z0-9]".prop_map(|s| s)
}

fn host() -> impl Strategy<Value = String> {
    prop::collection::vec(label(), 1..5).prop_map(|labels| labels.join("."))
}

/// The site lookup's reference: a full parse, then the site.
fn parsed_site_domain(input: &str) -> Option<String> {
    Url::parse(input)
        .ok()
        .and_then(|u| u.site())
        .map(|s| s.registrable_domain().to_owned())
}

/// Strings shaped like the URLs scripts are loaded from, with the
/// corners the parser cares about: scheme case, a missing `//`,
/// userinfo, empty, huge and non-numeric ports, uppercase and invalid
/// hosts, public-suffix and IP hosts, and surrounding whitespace.
const URL_SHAPED: &str = "( |\t|||)(https|https|https|http|HTTPS|Http|wss|ws|data|javascript|mailto|1x|h t)(://|://|://|://|:|:/)([a-z]{1,4}(:[a-z]{0,3})?@)?(([a-zA-Z0-9_-]{1,8}\\.){0,3}[a-z0-9_-]{1,8}|([a-z0-9-]{1,8}\\.){1,3}[a-zA-Z0-9_-]{1,8}|github\\.io|co\\.uk|192\\.168\\.0\\.1|\\.bad|bad\\.|b d|)(:[0-9]{0,5}|:x|||)(/[a-zA-Z0-9.]{0,6}){0,3}(\\?[a-z=&]{0,6})?(#[a-z]{0,4})?( |\t|||)";

proptest! {
    /// Parsing then displaying then parsing again is a fixed point.
    #[test]
    fn parse_display_roundtrip(host in host(), path in "(/[a-z0-9]{1,6}){0,4}", port in prop::option::of(1u16..u16::MAX)) {
        let port_part = port.map(|p| format!(":{p}")).unwrap_or_default();
        let input = format!("https://{host}{port_part}{path}");
        if let Ok(u) = Url::parse(&input) {
            let s = u.to_string();
            let reparsed = Url::parse(&s).unwrap();
            prop_assert_eq!(&u, &reparsed);
            prop_assert_eq!(s.clone(), reparsed.to_string());
        }
    }

    /// The registrable domain is always a suffix of the host and contains
    /// the public suffix as its own suffix.
    #[test]
    fn registrable_domain_is_suffix(host in host()) {
        if let Some(rd) = psl::registrable_domain(&host) {
            prop_assert!(host.ends_with(rd));
            let ps = psl::public_suffix(&host);
            prop_assert!(rd.ends_with(ps));
            prop_assert!(rd.len() > ps.len());
        }
    }

    /// The borrowed site lookup agrees with a full parse on arbitrary
    /// byte soup...
    #[test]
    fn site_domain_matches_parse_on_byte_soup(words in prop::collection::vec(0u16..256u16, 0..48)) {
        let bytes: Vec<u8> = words.iter().map(|&w| w as u8).collect();
        let input = String::from_utf8_lossy(&bytes).into_owned();
        prop_assert_eq!(site_domain(&input).map(Cow::into_owned), parsed_site_domain(&input));
    }

    /// ... on printable ASCII soup with the URL metacharacters in it ...
    #[test]
    fn site_domain_matches_parse_on_ascii_soup(input in "[ -~]{0,40}", scheme in "(https?://|HTTP://|ws:|)") {
        let input = format!("{scheme}{input}");
        prop_assert_eq!(site_domain(&input).map(Cow::into_owned), parsed_site_domain(&input));
    }

    /// ... and on URL-shaped strings, where most inputs have a site. It
    /// borrows unless the host has uppercase letters.
    #[test]
    fn site_domain_matches_parse_on_url_shaped_strings(input in URL_SHAPED) {
        let lookup = site_domain(&input);
        prop_assert_eq!(
            lookup.clone().map(Cow::into_owned),
            parsed_site_domain(&input),
            "{:?}", input
        );
        if let Some(Cow::Owned(_)) = lookup {
            prop_assert!(input.bytes().any(|b| b.is_ascii_uppercase()), "{:?}", input);
        }
    }

    /// URLs are equal, and hash equal, exactly when every component is,
    /// whether parsed or resolved against a base.
    #[test]
    fn equality_is_componentwise(
        input in URL_SHAPED,
        refs in prop::collection::vec("(//[a-z]{1,3}\\.example|/|\\.\\./|\\?|#|)[a-z./?#=]{0,6}", 1..4),
    ) {
        let Ok(base) = Url::parse(&input) else { return Ok(()) };
        let fields = |u: &Url| {
            (
                u.scheme().to_owned(),
                u.host().map(str::to_owned),
                u.port(),
                u.path().to_owned(),
                u.query().map(str::to_owned),
                u.fragment().map(str::to_owned),
            )
        };
        let hash = |u: &Url| {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            u.hash(&mut hasher);
            hasher.finish()
        };
        let mut urls = vec![base.clone(), Url::parse(&base.to_string()).unwrap()];
        urls.extend(refs.iter().filter_map(|r| Url::parse_with_base(r, Some(&base)).ok()));
        for a in &urls {
            for b in &urls {
                prop_assert_eq!(a == b, fields(a) == fields(b), "{:?} vs {:?}", a, b);
                if a == b {
                    prop_assert_eq!(hash(a), hash(b));
                }
            }
        }
    }

    /// Same-origin is reflexive and symmetric over generated URLs.
    #[test]
    fn same_origin_reflexive(host in host()) {
        let u = Url::parse(&format!("https://{host}/")).unwrap();
        let o1 = u.origin();
        let o2 = u.origin();
        prop_assert!(o1.same_origin(&o2));
        prop_assert!(o2.same_origin(&o1));
    }

    /// Relative resolution against a base never panics and yields a URL on
    /// the same origin for path-only references.
    #[test]
    fn relative_resolution_stays_on_origin(host in host(), rel in "[a-z]{1,8}(/[a-z]{1,8}){0,3}") {
        let base = Url::parse(&format!("https://{host}/dir/page.html")).unwrap();
        let resolved = Url::parse_with_base(&rel, Some(&base)).unwrap();
        prop_assert!(resolved.origin().same_origin(&base.origin()));
    }

    /// Hosts never gain uppercase characters through parsing.
    #[test]
    fn host_is_lowercased(host in host()) {
        let upper = host.to_ascii_uppercase();
        let u = Url::parse(&format!("https://{upper}/")).unwrap();
        prop_assert_eq!(u.host().unwrap(), host);
    }

    /// Origin round-trip: serializing an origin and parsing the result
    /// as a URL yields the same origin — i.e. default-port omission and
    /// case normalization agree between `Origin::Display` and the URL
    /// parser.
    #[test]
    fn origin_parse_serialize_roundtrip(
        host in host(),
        scheme in prop_oneof![Just("http"), Just("https"), Just("ws"), Just("wss")],
        port in prop::option::of(1u16..u16::MAX),
    ) {
        let port_part = port.map(|p| format!(":{p}")).unwrap_or_default();
        let u = Url::parse(&format!("{scheme}://{host}{port_part}/")).unwrap();
        let origin = u.origin();
        let serialized = origin.to_string();
        let reparsed = Url::parse(&format!("{serialized}/")).unwrap().origin();
        prop_assert!(origin.same_origin(&reparsed), "{origin} != {reparsed}");
        prop_assert_eq!(serialized.clone(), reparsed.to_string());
    }

    /// PSL lookups are total on arbitrary byte soup: no panic (slicing
    /// stays on char boundaries), and every returned value is a suffix
    /// of the dot-trimmed input.
    #[test]
    fn psl_is_total_on_byte_soup(words in prop::collection::vec(0u16..256u16, 0..48)) {
        let bytes: Vec<u8> = words.iter().map(|&w| w as u8).collect();
        let host = String::from_utf8_lossy(&bytes).into_owned();
        let trimmed = host.trim_end_matches('.');
        let ps = psl::public_suffix(&host);
        prop_assert!(trimmed.ends_with(ps), "suffix {ps:?} of {trimmed:?}");
        let _ = psl::is_ipv4(&host);
        if let Some(rd) = psl::registrable_domain(&host) {
            prop_assert!(trimmed.ends_with(rd), "rd {rd:?} of {trimmed:?}");
            prop_assert!(rd.ends_with(ps));
            prop_assert!(rd.len() > ps.len());
        }
    }

    /// PSL lookups are also total on dotted ASCII label soup, the shape
    /// real hostnames take (exercises wildcard/exception rule paths more
    /// than raw bytes do).
    #[test]
    fn psl_is_total_on_label_soup(host in "[a-z0-9.*-]{0,32}") {
        let trimmed = host.trim_end_matches('.');
        let ps = psl::public_suffix(&host);
        prop_assert!(trimmed.ends_with(ps));
        if let Some(rd) = psl::registrable_domain(&host) {
            prop_assert!(trimmed.ends_with(rd));
        }
    }

    /// Origin equality is consistent with same-site classification:
    /// same-origin URLs always land on the same site (scheme +
    /// registrable domain), and a shared host implies a shared
    /// registrable domain even across schemes and ports.
    #[test]
    fn origin_equality_implies_same_site(
        host in host(),
        scheme_a in prop_oneof![Just("http"), Just("https")],
        scheme_b in prop_oneof![Just("http"), Just("https")],
        port in prop::option::of(1u16..u16::MAX),
    ) {
        let port_part = port.map(|p| format!(":{p}")).unwrap_or_default();
        let a = Url::parse(&format!("{scheme_a}://{host}{port_part}/x")).unwrap();
        let b = Url::parse(&format!("{scheme_b}://{host}/y")).unwrap();
        let site_a = psl::registrable_domain(a.host().unwrap());
        let site_b = psl::registrable_domain(b.host().unwrap());
        // Same host ⇒ same registrable domain, whatever scheme/port did.
        prop_assert_eq!(site_a, site_b);
        let origin_a = a.origin();
        let origin_b = b.origin();
        if origin_a.same_origin(&origin_b) {
            // Same origin additionally pins scheme and effective port.
            prop_assert_eq!(origin_a.scheme(), origin_b.scheme());
        }
        // Symmetry and reflexivity of the origin relation.
        prop_assert!(a.origin().same_origin(&a.origin()));
        prop_assert_eq!(
            a.origin().same_origin(&b.origin()),
            b.origin().same_origin(&a.origin())
        );
    }
}
