//! Embedded public-suffix snapshot.
//!
//! The paper classifies scripts and frames as first- vs third-party by
//! *site* (scheme + eTLD+1), which requires public-suffix knowledge. A full
//! PSL is ~10k rules; the crawler only ever sees hosts from the synthetic
//! population plus a fixed set of real-world widget domains, so an embedded
//! snapshot of the common ICANN suffixes (plus the handful of private
//! suffixes that matter for widget attribution, e.g. `appspot.com`) is
//! sufficient and keeps this crate dependency-free.

use std::collections::HashMap;
use std::sync::OnceLock;

/// Ordinary suffix rules (an entry `co.uk` makes `example.co.uk` the
/// registrable domain of `www.example.co.uk`).
const SUFFIXES: &[&str] = &[
    // Generic TLDs.
    "com",
    "org",
    "net",
    "edu",
    "gov",
    "mil",
    "int",
    "info",
    "biz",
    "name",
    "io",
    "co",
    "ai",
    "app",
    "dev",
    "xyz",
    "site",
    "online",
    "store",
    "shop",
    "blog",
    "cloud",
    "live",
    "news",
    "media",
    "tech",
    "agency",
    "digital",
    // Country TLDs that appear bare.
    "de",
    "fr",
    "es",
    "it",
    "nl",
    "pl",
    "ru",
    "cz",
    "at",
    "ch",
    "be",
    "dk",
    "se",
    "no",
    "fi",
    "pt",
    "gr",
    "ie",
    "hu",
    "ro",
    "bg",
    "sk",
    "si",
    "hr",
    "lt",
    "lv",
    "ee",
    "us",
    "ca",
    "mx",
    "br",
    "ar",
    "cl",
    "pe",
    "ve",
    "jp",
    "cn",
    "kr",
    "in",
    "id",
    "th",
    "vn",
    "my",
    "sg",
    "ph",
    "tw",
    "hk",
    "tr",
    "il",
    "sa",
    "ae",
    "eg",
    "za",
    "ng",
    "ke",
    "ma",
    "tv",
    "me",
    "cc",
    "ws",
    "fm",
    "to",
    "gg",
    "im",
    "ly",
    "is",
    "eu",
    // Two-level suffixes.
    "co.uk",
    "org.uk",
    "ac.uk",
    "gov.uk",
    "me.uk",
    "net.uk",
    "com.au",
    "net.au",
    "org.au",
    "edu.au",
    "gov.au",
    "co.nz",
    "net.nz",
    "org.nz",
    "co.jp",
    "ne.jp",
    "or.jp",
    "ac.jp",
    "go.jp",
    "com.br",
    "net.br",
    "org.br",
    "gov.br",
    "com.cn",
    "net.cn",
    "org.cn",
    "gov.cn",
    "co.in",
    "net.in",
    "org.in",
    "gov.in",
    "ac.in",
    "com.mx",
    "org.mx",
    "gob.mx",
    "co.kr",
    "or.kr",
    "go.kr",
    "com.tr",
    "org.tr",
    "gov.tr",
    "com.ar",
    "com.sg",
    "com.hk",
    "com.tw",
    "com.my",
    "co.th",
    "co.id",
    "com.ua",
    "co.il",
    "com.sa",
    "co.za",
    "com.eg",
    "com.ng",
    "com.pl",
    "net.pl",
    "org.pl",
    "com.ru",
    "net.ru",
    "org.ru",
    "com.de",
    "co.de",
    // Private-domain suffixes that matter for widget attribution: every
    // customer gets a subdomain, so the subdomain is the registrable unit.
    "appspot.com",
    "github.io",
    "gitlab.io",
    "netlify.app",
    "vercel.app",
    "herokuapp.com",
    "web.app",
    "firebaseapp.com",
    "pages.dev",
    "blogspot.com",
    "wordpress.com",
    "cloudfront.net",
    "azurewebsites.net",
    "s3.amazonaws.com",
    "myshopify.com",
];

/// Wildcard rules (`*.ck`): every label directly under the suffix is itself
/// a suffix.
const WILDCARDS: &[&str] = &["ck", "er", "fj", "kh", "mm", "np", "pg"];

/// Exceptions to wildcard rules (`!www.ck`): the listed name is registrable.
const EXCEPTIONS: &[&str] = &["www.ck", "city.kawasaki.jp"];

/// The last label of a rule or host (all of it when it has no dot).
fn last_label(name: &str) -> &str {
    name.rfind('.').map_or(name, |i| &name[i + 1..])
}

/// The ordinary rules grouped by their last label: a rule can match a
/// host only if both end in the same label, so a lookup checks a handful
/// of rules instead of scanning all of them.
fn rules_by_last_label() -> &'static HashMap<&'static str, Vec<&'static str>> {
    static INDEX: OnceLock<HashMap<&'static str, Vec<&'static str>>> = OnceLock::new();
    INDEX.get_or_init(|| {
        let mut index: HashMap<&'static str, Vec<&'static str>> = HashMap::new();
        for rule in SUFFIXES {
            index.entry(last_label(rule)).or_default().push(rule);
        }
        index
    })
}

/// Whether `host` equals `suffix` or ends with `.suffix` — the PSL rule
/// match, allocation-free (this runs for every frame and script URL in a
/// crawl).
fn rule_matches(host: &str, suffix: &str) -> bool {
    if host.len() == suffix.len() {
        return host == suffix;
    }
    host.len() > suffix.len()
        && host.ends_with(suffix)
        && host.as_bytes()[host.len() - suffix.len() - 1] == b'.'
}

/// Returns the public suffix of `host` (longest matching rule), falling back
/// to the last label when no rule matches.
pub fn public_suffix(host: &str) -> &str {
    let host = host.trim_end_matches('.');
    // Exception rules win over wildcards: the exception name itself is a
    // registrable domain, so its suffix is everything after its first label.
    for exc in EXCEPTIONS {
        if rule_matches(host, exc) {
            let idx = exc.find('.').map(|i| i + 1).unwrap_or(0);
            let suffix = &exc[idx..];
            let start = host.len() - suffix.len();
            return &host[start..];
        }
    }
    // Wildcard rules: `label.wc` is a suffix for any label.
    for wc in WILDCARDS {
        if host.len() > wc.len() + 1 && rule_matches(host, wc) {
            let prefix = &host[..host.len() - wc.len() - 1];
            // The suffix is `<last-label-of-prefix>.<wc>`.
            let label_start = prefix.rfind('.').map(|i| i + 1).unwrap_or(0);
            return &host[label_start..];
        }
        if host == *wc {
            return host;
        }
    }
    // Ordinary rules: longest match.
    let best = rules_by_last_label()
        .get(last_label(host))
        .into_iter()
        .flatten()
        .filter(|suffix| rule_matches(host, suffix))
        .max_by_key(|suffix| suffix.len());
    match best {
        Some(suffix) => &host[host.len() - suffix.len()..],
        // Unknown TLD: treat the final label as the suffix (PSL `*` rule).
        None => match host.rfind('.') {
            Some(i) => &host[i + 1..],
            None => host,
        },
    }
}

/// Whether the host is an IPv4 address literal. IPs have no registrable
/// domain — their "site" is the address itself.
pub fn is_ipv4(host: &str) -> bool {
    let mut octets = 0;
    for part in host.split('.') {
        if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
            return false;
        }
        if part.parse::<u16>().map(|v| v > 255).unwrap_or(true) {
            return false;
        }
        octets += 1;
    }
    octets == 4
}

/// Returns the registrable domain (eTLD+1) of `host`, or `None` when the
/// host *is* a public suffix (no registrable part) or an IP literal.
pub fn registrable_domain(host: &str) -> Option<&str> {
    let host = host.trim_end_matches('.');
    if is_ipv4(host) {
        return None;
    }
    let suffix = public_suffix(host);
    if suffix.len() == host.len() {
        return None;
    }
    let prefix = &host[..host.len() - suffix.len() - 1];
    let label_start = prefix.rfind('.').map(|i| i + 1).unwrap_or(0);
    Some(&host[label_start..])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The indexed lookup against a scan of every rule, on each rule
    /// itself, under one and two more labels, and with its first byte
    /// changed.
    #[test]
    fn indexed_lookup_matches_a_scan_of_every_rule() {
        fn scan(host: &str) -> &str {
            SUFFIXES
                .iter()
                .filter(|suffix| rule_matches(host, suffix))
                .max_by_key(|suffix| suffix.len())
                .map(|suffix| &host[host.len() - suffix.len()..])
                .unwrap_or_else(|| last_label(host))
        }
        for rule in SUFFIXES.iter().chain(WILDCARDS).chain(EXCEPTIONS) {
            let changed = format!("q{}", &rule[1..]);
            for host in [
                rule.to_string(),
                format!("x.{rule}"),
                format!("y.x.{rule}"),
                format!("x{rule}"),
                changed,
            ] {
                let exceptional = EXCEPTIONS.iter().any(|e| rule_matches(&host, e))
                    || WILDCARDS.iter().any(|w| rule_matches(&host, w));
                if !exceptional {
                    assert_eq!(public_suffix(&host), scan(&host), "{host}");
                }
            }
        }
    }

    #[test]
    fn simple_tld() {
        assert_eq!(public_suffix("example.com"), "com");
        assert_eq!(registrable_domain("example.com"), Some("example.com"));
        assert_eq!(registrable_domain("www.example.com"), Some("example.com"));
        assert_eq!(registrable_domain("a.b.c.example.com"), Some("example.com"));
    }

    #[test]
    fn two_level_suffix() {
        assert_eq!(public_suffix("example.co.uk"), "co.uk");
        assert_eq!(
            registrable_domain("www.example.co.uk"),
            Some("example.co.uk")
        );
    }

    #[test]
    fn suffix_itself_has_no_registrable_domain() {
        assert_eq!(registrable_domain("com"), None);
        assert_eq!(registrable_domain("co.uk"), None);
    }

    #[test]
    fn private_suffixes() {
        assert_eq!(
            registrable_domain("widget.appspot.com"),
            Some("widget.appspot.com")
        );
        assert_eq!(
            registrable_domain("deep.widget.appspot.com"),
            Some("widget.appspot.com")
        );
        assert_eq!(registrable_domain("appspot.com"), None);
    }

    #[test]
    fn wildcard_rules() {
        assert_eq!(public_suffix("foo.bar.ck"), "bar.ck");
        assert_eq!(registrable_domain("foo.bar.ck"), Some("foo.bar.ck"));
        assert_eq!(registrable_domain("bar.ck"), None);
    }

    #[test]
    fn exception_rules() {
        assert_eq!(registrable_domain("www.ck"), Some("www.ck"));
        assert_eq!(registrable_domain("sub.www.ck"), Some("www.ck"));
    }

    #[test]
    fn unknown_tld_falls_back_to_last_label() {
        assert_eq!(public_suffix("example.weirdtld"), "weirdtld");
        assert_eq!(
            registrable_domain("a.example.weirdtld"),
            Some("example.weirdtld")
        );
    }

    #[test]
    fn single_label_host() {
        assert_eq!(public_suffix("localhost"), "localhost");
        assert_eq!(registrable_domain("localhost"), None);
    }

    #[test]
    fn ipv4_hosts_have_no_registrable_domain() {
        assert!(is_ipv4("127.0.0.1"));
        assert!(is_ipv4("255.255.255.255"));
        assert!(!is_ipv4("256.0.0.1"));
        assert!(!is_ipv4("1.2.3"));
        assert!(!is_ipv4("a.b.c.d"));
        assert_eq!(registrable_domain("127.0.0.1"), None);
        assert_eq!(registrable_domain("192.168.1.10"), None);
    }

    #[test]
    fn trailing_dot_is_ignored() {
        assert_eq!(registrable_domain("example.com."), Some("example.com"));
    }
}
