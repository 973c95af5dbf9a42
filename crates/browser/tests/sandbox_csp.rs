//! End-to-end tests for the sandbox-attribute and CSP frame-gating
//! extensions.

use browser::{Browser, BrowserConfig};
use netsim::{ContentProvider, ProviderResult, Response, SimClock, SimNetwork, SiteBehavior};
use registry::Permission;
use weburl::Url;

struct Web(&'static str);

impl ContentProvider for Web {
    fn resolve(&self, url: &Url) -> ProviderResult {
        let html = match url.host() {
            Some("top.example") => self.0.to_string(),
            Some("widget.example") => r#"<script>navigator.getBattery();</script>"#.to_string(),
            _ => return ProviderResult::DnsFailure,
        };
        ProviderResult::Content {
            response: Response::html(url.clone(), html),
            behavior: SiteBehavior::default(),
        }
    }
}

fn visit(top_html: &'static str) -> browser::PageVisit {
    let mut b = Browser::new(SimNetwork::new(Web(top_html)), BrowserConfig::default());
    let mut clock = SimClock::new();
    b.visit(&Url::parse("https://top.example/").unwrap(), &mut clock)
        .unwrap()
}

fn visit_with_csp(csp: &'static str) -> browser::PageVisit {
    struct CspWeb(&'static str);
    impl ContentProvider for CspWeb {
        fn resolve(&self, url: &Url) -> ProviderResult {
            let response = match url.host() {
                Some("top.example") => Response::html(
                    url.clone(),
                    r#"<iframe src="https://widget.example/"></iframe>
                       <iframe src="data:text/html,<p>inj</p>"></iframe>"#,
                )
                .with_header("Content-Security-Policy", self.0),
                Some("widget.example") => Response::html(url.clone(), "<p>w</p>"),
                _ => return ProviderResult::DnsFailure,
            };
            ProviderResult::Content {
                response,
                behavior: SiteBehavior::default(),
            }
        }
    }
    let mut b = Browser::new(SimNetwork::new(CspWeb(csp)), BrowserConfig::default());
    let mut clock = SimClock::new();
    b.visit(&Url::parse("https://top.example/").unwrap(), &mut clock)
        .unwrap()
}

#[test]
fn sandbox_without_allow_scripts_blocks_execution() {
    let v = visit(r#"<iframe src="https://widget.example/" sandbox=""></iframe>"#);
    let frame = v.embedded_frames().next().unwrap();
    // Source collected for static analysis, but nothing executed.
    assert!(!frame.scripts.is_empty());
    assert!(frame.invocations.is_empty());
}

#[test]
fn sandbox_with_allow_scripts_executes() {
    let v = visit(
        r#"<iframe src="https://widget.example/" sandbox="allow-scripts allow-same-origin"></iframe>"#,
    );
    let frame = v.embedded_frames().next().unwrap();
    assert_eq!(frame.invocations.len(), 1);
    assert_eq!(frame.origin, "https://widget.example");
}

#[test]
fn sandbox_without_allow_same_origin_gives_opaque_origin() {
    let v = visit(r#"<iframe src="https://widget.example/" sandbox="allow-scripts"></iframe>"#);
    let frame = v.embedded_frames().next().unwrap();
    assert_eq!(frame.origin, "null");
    // Opaque origin: self-default features are gone even same-host.
    assert!(!frame.allowed_features.contains(Permission::Camera));
}

#[test]
fn sandboxed_srcdoc_is_inert() {
    let v =
        visit(r#"<iframe srcdoc="<script>navigator.getBattery();</script>" sandbox=""></iframe>"#);
    let frame = v.embedded_frames().next().unwrap();
    assert!(frame.is_local_document);
    assert!(frame.invocations.is_empty());
    assert_eq!(frame.origin, "null");
}

#[test]
fn csp_frame_src_self_blocks_external_and_data_frames() {
    let v = visit_with_csp("frame-src 'self'");
    // Both the cross-origin widget and the data: injection are refused.
    assert_eq!(v.embedded_frames().count(), 0);
}

#[test]
fn csp_https_frame_src_allows_widgets_blocks_data() {
    let v = visit_with_csp("frame-src 'self' https:");
    let frames: Vec<_> = v.embedded_frames().collect();
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].site.as_deref(), Some("widget.example"));
}

#[test]
fn csp_without_frame_directive_blocks_nothing() {
    let v = visit_with_csp("script-src 'self'");
    assert_eq!(v.embedded_frames().count(), 2);
    // The CSP header is recorded for the vulnerability analysis.
    assert_eq!(
        v.top_frame().unwrap().csp_header.as_deref(),
        Some("script-src 'self'")
    );
}
