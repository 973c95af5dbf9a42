//! Origins.
//!
//! A web origin is either a *tuple origin* `(scheme, host, port)` or an
//! *opaque origin* that is equal only to itself. Local-scheme documents
//! (`data:`, `about:blank` with fresh browsing contexts, `blob:` without a
//! backing origin) get opaque origins in this model — which is exactly the
//! property that makes the paper's local-scheme specification issue
//! interesting.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_OPAQUE: AtomicU64 = AtomicU64::new(1);

/// A web origin.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Origin {
    /// A `(scheme, host, port)` tuple origin.
    Tuple {
        /// Lowercase scheme.
        scheme: String,
        /// Lowercase host.
        host: String,
        /// Effective port (scheme default already applied), if known.
        port: Option<u16>,
    },
    /// An opaque origin, equal only to itself.
    Opaque(u64),
}

impl Origin {
    /// Creates a tuple origin.
    pub fn tuple(scheme: &str, host: &str, port: Option<u16>) -> Origin {
        Origin::Tuple {
            scheme: scheme.to_ascii_lowercase(),
            host: host.to_ascii_lowercase(),
            port,
        }
    }

    /// Creates a fresh opaque origin, distinct from every other origin.
    pub fn opaque() -> Origin {
        Origin::Opaque(NEXT_OPAQUE.fetch_add(1, Ordering::Relaxed))
    }

    /// Whether this is an opaque origin.
    pub fn is_opaque(&self) -> bool {
        matches!(self, Origin::Opaque(_))
    }

    /// The host of a tuple origin.
    pub fn host(&self) -> Option<&str> {
        match self {
            Origin::Tuple { host, .. } => Some(host),
            Origin::Opaque(_) => None,
        }
    }

    /// The scheme of a tuple origin.
    pub fn scheme(&self) -> Option<&str> {
        match self {
            Origin::Tuple { scheme, .. } => Some(scheme),
            Origin::Opaque(_) => None,
        }
    }

    /// Same-origin comparison: tuple origins compare componentwise, opaque
    /// origins only to themselves.
    pub fn same_origin(&self, other: &Origin) -> bool {
        self == other
    }

    /// ASCII serialization used by allowlist matching: `scheme://host[:port]`
    /// with default ports omitted, or `"null"` for opaque origins. The
    /// same text as `Display`, in one allocation.
    pub fn ascii_serialization(&self) -> String {
        let capacity = match self {
            // `:` and up to five port digits.
            Origin::Tuple { scheme, host, .. } => scheme.len() + "://".len() + host.len() + 6,
            Origin::Opaque(_) => "null".len(),
        };
        let mut text = String::with_capacity(capacity);
        // Writing to a `String` cannot fail.
        let _ = fmt::Write::write_fmt(&mut text, format_args!("{self}"));
        text
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Tuple { scheme, host, port } => {
                write!(f, "{scheme}://{host}")?;
                let default = match scheme.as_str() {
                    "http" | "ws" => Some(80),
                    "https" | "wss" => Some(443),
                    _ => None,
                };
                match port {
                    Some(p) if Some(*p) != default => write!(f, ":{p}"),
                    _ => Ok(()),
                }
            }
            Origin::Opaque(_) => write!(f, "null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_origins_compare_componentwise() {
        let a = Origin::tuple("https", "example.com", Some(443));
        let b = Origin::tuple("HTTPS", "EXAMPLE.com", Some(443));
        assert!(a.same_origin(&b));
        let c = Origin::tuple("https", "example.com", Some(8443));
        assert!(!a.same_origin(&c));
        let d = Origin::tuple("http", "example.com", Some(443));
        assert!(!a.same_origin(&d));
    }

    #[test]
    fn opaque_origins_are_unique() {
        let a = Origin::opaque();
        let b = Origin::opaque();
        assert!(!a.same_origin(&b));
        assert!(a.same_origin(&a.clone()));
        assert!(a.is_opaque());
    }

    #[test]
    fn serialization_omits_default_port() {
        assert_eq!(
            Origin::tuple("https", "example.com", Some(443)).to_string(),
            "https://example.com"
        );
        assert_eq!(
            Origin::tuple("https", "example.com", Some(8443)).to_string(),
            "https://example.com:8443"
        );
        assert_eq!(Origin::opaque().to_string(), "null");
        for origin in [
            Origin::tuple("https", "example.com", Some(443)),
            Origin::tuple("http", "example.com", Some(65535)),
            Origin::opaque(),
        ] {
            assert_eq!(origin.ascii_serialization(), origin.to_string());
        }
    }
}
