//! Sites (scheme + registrable domain).
//!
//! The paper's first-party/third-party classification is by *site*: "we
//! define first-party scripts as those originating from the same site as
//! the context/document under analysis, and third-party scripts as those
//! from any other site."

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::psl;

/// A site: scheme plus registrable domain (eTLD+1).
///
/// Hosts that are themselves public suffixes, or non-domain hosts, fall
/// back to the full host so every network URL has *some* site.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Site {
    scheme: String,
    registrable_domain: String,
}

impl Site {
    /// Computes the site of `host` under `scheme`.
    pub fn from_host(scheme: &str, host: &str) -> Site {
        let rd = registrable_domain_or_host(host);
        Site {
            scheme: scheme.to_ascii_lowercase(),
            registrable_domain: rd.to_ascii_lowercase(),
        }
    }

    /// The registrable domain (eTLD+1).
    pub fn registrable_domain(&self) -> &str {
        &self.registrable_domain
    }

    /// The scheme.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Schemeless same-site comparison (the paper's tables group embeds by
    /// registrable domain regardless of scheme).
    pub fn same_registrable_domain(&self, other: &Site) -> bool {
        self.registrable_domain == other.registrable_domain
    }
}

/// The registrable domain of `host`, or the host itself when it has
/// none (a public suffix or an IP literal).
pub(crate) fn registrable_domain_or_host(host: &str) -> &str {
    psl::registrable_domain(host).unwrap_or(host)
}

/// `Display` shows only the registrable domain — matching how the paper's
/// tables name embedded-document sites (e.g. `youtube.com`).
impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.registrable_domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_from_subdomain() {
        let s = Site::from_host("https", "www.video.example.com");
        assert_eq!(s.registrable_domain(), "example.com");
        assert_eq!(s.to_string(), "example.com");
    }

    #[test]
    fn same_site_across_subdomains() {
        let a = Site::from_host("https", "a.example.com");
        let b = Site::from_host("https", "b.example.com");
        assert_eq!(a, b);
    }

    #[test]
    fn schemeful_site_distinction() {
        let a = Site::from_host("https", "example.com");
        let b = Site::from_host("http", "example.com");
        assert_ne!(a, b);
        assert!(a.same_registrable_domain(&b));
    }

    #[test]
    fn suffix_host_falls_back_to_itself() {
        let s = Site::from_host("https", "github.io");
        assert_eq!(s.registrable_domain(), "github.io");
    }

    #[test]
    fn ip_hosts_are_their_own_site() {
        let s = Site::from_host("http", "192.168.1.10");
        assert_eq!(s.registrable_domain(), "192.168.1.10");
    }
}
