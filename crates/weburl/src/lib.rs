//! Minimal URL, [`Origin`] and [`Site`] model.
//!
//! This crate implements just enough of the WHATWG URL standard for the
//! permissions-odyssey measurement stack: parsing absolute URLs of the
//! schemes websites actually embed (`http`, `https`, `data`, `blob`,
//! `about`, `javascript`, `filesystem`), computing origins (tuple origins
//! for network schemes, opaque origins for local schemes), resolving
//! relative references against a base, and deriving the *site* (scheme +
//! eTLD+1) that the paper uses to classify scripts and frames as first- or
//! third-party.
//!
//! The public-suffix data is an embedded snapshot covering the suffixes that
//! occur in the synthetic population plus the common real-world suffixes
//! (see [`psl`]).
//!
//! # Example
//!
//! ```
//! use weburl::Url;
//!
//! let url = Url::parse("https://video.example.co.uk:8443/embed?id=1#t=3").unwrap();
//! assert_eq!(url.scheme(), "https");
//! assert_eq!(url.host(), Some("video.example.co.uk"));
//! assert_eq!(url.port_or_default(), Some(8443));
//! let origin = url.origin();
//! assert_eq!(origin.to_string(), "https://video.example.co.uk:8443");
//! let site = url.site().unwrap();
//! assert_eq!(site.registrable_domain(), "example.co.uk");
//! ```

mod origin;
mod parse;
pub mod psl;
mod site;

pub use origin::Origin;
pub use parse::{site_domain, ParseError, Url};
pub use site::Site;

/// Returns `true` for *local schemes* as defined by the Fetch standard
/// (`about`, `blob`, `data`), the set the paper uses to distinguish local
/// document iframes from network-backed ones.
pub fn is_local_scheme(scheme: &str) -> bool {
    matches!(scheme, "about" | "blob" | "data")
}

/// Returns `true` if the scheme yields a document without an HTTP response
/// (local schemes plus `javascript:`), i.e. the iframes the paper counts as
/// "local documents" because they carry no headers.
pub fn is_headerless_scheme(scheme: &str) -> bool {
    is_local_scheme(scheme) || scheme == "javascript"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_scheme_classification() {
        assert!(is_local_scheme("about"));
        assert!(is_local_scheme("blob"));
        assert!(is_local_scheme("data"));
        assert!(!is_local_scheme("javascript"));
        assert!(!is_local_scheme("https"));
    }

    #[test]
    fn headerless_scheme_classification() {
        assert!(is_headerless_scheme("javascript"));
        assert!(is_headerless_scheme("data"));
        assert!(!is_headerless_scheme("http"));
    }
}
