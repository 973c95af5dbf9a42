//! HTTP responses and per-site behaviour.

use std::borrow::Cow;

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use weburl::Url;

use crate::error::FetchError;

/// A header name or value. The simulator's constant headers borrow
/// static text, so serving or cloning them copies nothing.
pub type HeaderText = Cow<'static, str>;

/// A fetched resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (the simulator serves 200s; errors are [`FetchError`]s).
    pub status: u16,
    /// Response headers, in order. Names are case-insensitive on lookup.
    pub headers: Vec<(HeaderText, HeaderText)>,
    /// Body bytes.
    pub body: Bytes,
    /// URL after redirects.
    pub final_url: Url,
    /// Number of redirects followed.
    pub redirects: u32,
}

impl Response {
    /// A 200 response of `content_type`.
    fn ok(url: Url, content_type: &'static str, body: Bytes) -> Response {
        Response {
            status: 200,
            headers: vec![(
                HeaderText::Borrowed("content-type"),
                HeaderText::Borrowed(content_type),
            )],
            body,
            final_url: url,
            redirects: 0,
        }
    }

    /// A 200 HTML response with no headers.
    pub fn html(url: Url, body: impl Into<Bytes>) -> Response {
        Response::ok(url, "text/html; charset=utf-8", body.into())
    }

    /// A 200 JavaScript response.
    pub fn script(url: Url, body: impl Into<Bytes>) -> Response {
        Response::ok(url, "application/javascript", body.into())
    }

    /// Adds a header.
    pub fn with_header(
        mut self,
        name: impl Into<HeaderText>,
        value: impl Into<HeaderText>,
    ) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| &**v)
    }

    /// Body as UTF-8 (lossy), borrowed unless it needs repair.
    pub fn body_str(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// Body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        self.body_str().into_owned()
    }
}

/// Behavioural knobs a [`crate::ContentProvider`] attaches to a response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteBehavior {
    /// Simulated time the fetch takes.
    pub latency_ms: u64,
    /// A failure injected *after* content is served (ephemeral context /
    /// crawler crash — they surface during collection, not during fetch).
    pub post_fetch_failure: Option<FetchError>,
}

impl Default for SiteBehavior {
    fn default() -> SiteBehavior {
        SiteBehavior {
            latency_ms: 120,
            post_fetch_failure: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_lookup_is_case_insensitive() {
        let r = Response::html(Url::parse("https://x.example/").unwrap(), "x")
            .with_header("Permissions-Policy", "camera=()");
        assert_eq!(r.header("permissions-policy"), Some("camera=()"));
        assert_eq!(r.header("PERMISSIONS-POLICY"), Some("camera=()"));
        assert_eq!(r.header("feature-policy"), None);
    }

    #[test]
    fn body_text_roundtrip() {
        let r = Response::script(Url::parse("https://x.example/a.js").unwrap(), "var x = 1;");
        assert_eq!(r.body_text(), "var x = 1;");
        assert_eq!(r.header("content-type"), Some("application/javascript"));
    }
}
