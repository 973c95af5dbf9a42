//! Specification-conformance integration tests: the engine-level results
//! (Tables 1, 2, 11) must agree with the end-to-end browser behaviour.

use permissions_odyssey::prelude::*;
use registry::DefaultAllowlist;

#[test]
fn table1_engine_results_match_paper() {
    let expected = [
        (1, true, false),
        (2, true, true),
        (3, false, false),
        (4, true, false),
        (5, true, false),
        (6, true, true),
        (7, true, true),
        (8, false, false),
    ];
    let matrix = tools::poc::delegation_matrix();
    assert_eq!(matrix.len(), 8);
    for (case, (n, top, iframe)) in matrix.iter().zip(expected) {
        assert_eq!(case.case, n);
        assert_eq!(case.top_allowed, top, "case #{n} top");
        assert_eq!(case.iframe_allowed, iframe, "case #{n} iframe");
    }
}

#[test]
fn table2_characteristics_match_paper() {
    let rows: [(&str, bool, bool, Option<DefaultAllowlist>); 5] = [
        ("camera", true, true, Some(DefaultAllowlist::SelfOrigin)),
        (
            "geolocation",
            true,
            true,
            Some(DefaultAllowlist::SelfOrigin),
        ),
        ("gamepad", false, true, Some(DefaultAllowlist::Star)),
        ("notifications", true, false, None),
        ("push", true, false, None),
    ];
    for (token, powerful, policy_controlled, default) in rows {
        let p = Permission::from_token(token).unwrap();
        let info = p.info();
        assert_eq!(info.powerful, powerful, "{token} powerful");
        assert_eq!(info.policy_controlled, policy_controlled, "{token} policy");
        assert_eq!(info.default_allowlist, default, "{token} default");
    }
}

#[test]
fn table11_engine_results_match_paper() {
    let outcomes = tools::poc::local_scheme_issue();
    assert!(
        outcomes[0].local_doc_allowed && !outcomes[0].attacker_allowed,
        "expected"
    );
    assert!(
        outcomes[1].local_doc_allowed && outcomes[1].attacker_allowed,
        "actual"
    );
}

#[test]
fn header_precedence_is_chromium_like() {
    use browser::{Browser, BrowserConfig};
    use netsim::{ContentProvider, ProviderResult, Response, SimClock, SimNetwork, SiteBehavior};

    // A site with BOTH headers: Permissions-Policy wins; with a broken
    // PP header, the whole header is dropped (no fallback to FP when PP
    // is present per our modeled precedence? Chromium: FP applies only
    // when no PP header exists — an invalid PP header still counts as
    // present and yields defaults).
    struct TwoHeaders(&'static str);
    impl ContentProvider for TwoHeaders {
        fn resolve(&self, url: &Url) -> ProviderResult {
            ProviderResult::Content {
                response: Response::html(url.clone(), "<p>x</p>")
                    .with_header("Permissions-Policy", self.0)
                    .with_header("Feature-Policy", "geolocation 'none'"),
                behavior: SiteBehavior::default(),
            }
        }
    }

    let check = |pp: &'static str| {
        let mut b = Browser::new(SimNetwork::new(TwoHeaders(pp)), BrowserConfig::default());
        let mut clock = SimClock::new();
        let v = b
            .visit(&Url::parse("https://example.org/").unwrap(), &mut clock)
            .unwrap();
        v.top_frame().unwrap().allowed_features
    };

    // Valid PP wins: camera off, geolocation (FP says none) stays on.
    let features = check("camera=()");
    assert!(!features.contains(Permission::Camera));
    assert!(features.contains(Permission::Geolocation));

    // Broken PP: dropped entirely, defaults apply (camera on).
    let features = check("camera 'none'");
    assert!(features.contains(Permission::Camera));
}

#[test]
fn wildcard_delegation_survives_redirects_end_to_end() {
    use browser::{Browser, BrowserConfig};
    use netsim::{ContentProvider, ProviderResult, Response, SimClock, SimNetwork, SiteBehavior};

    // §5.2's wildcard risk: the widget redirects to another origin; with
    // `camera *` the permission follows, with the default src it dies.
    struct RedirectingWidget(&'static str);
    impl ContentProvider for RedirectingWidget {
        fn resolve(&self, url: &Url) -> ProviderResult {
            match url.host() {
                Some("top.example") => ProviderResult::Content {
                    response: Response::html(
                        url.clone(),
                        match self.0 {
                            "star" => {
                                r#"<iframe src="https://widget.example/" allow="camera *"></iframe>"#
                            }
                            _ => {
                                r#"<iframe src="https://widget.example/" allow="camera"></iframe>"#
                            }
                        },
                    ),
                    behavior: SiteBehavior::default(),
                },
                Some("widget.example") => {
                    ProviderResult::Redirect(Url::parse("https://hijacked.example/").unwrap())
                }
                Some("hijacked.example") => ProviderResult::Content {
                    response: Response::html(url.clone(), "<p>moved</p>"),
                    behavior: SiteBehavior::default(),
                },
                _ => ProviderResult::DnsFailure,
            }
        }
    }

    let camera_after_redirect = |mode: &'static str| {
        let mut b = Browser::new(
            SimNetwork::new(RedirectingWidget(mode)),
            BrowserConfig::default(),
        );
        let mut clock = SimClock::new();
        let v = b
            .visit(&Url::parse("https://top.example/").unwrap(), &mut clock)
            .unwrap();
        v.frames
            .iter()
            .find(|f| f.site.as_deref() == Some("hijacked.example"))
            .map(|f| f.allowed_features.contains(Permission::Camera))
            .unwrap()
    };

    assert!(
        camera_after_redirect("star"),
        "wildcard follows the redirect"
    );
    assert!(!camera_after_redirect("src"), "default src does not");
}

#[test]
fn wildcard_vs_named_origin_allowlists() {
    use policy::engine::{FramingContext, LocalSchemeBehavior};
    use weburl::Origin;

    let origin = |s: &str| Url::parse(s).unwrap().origin();
    let me = origin("https://me.example/");
    let widget = origin("https://widget.example/");
    let evil = origin("https://evil.example/");
    let scheme_swap = origin("http://me.example/");
    let other_port = origin("https://me.example:8443/");

    // (header, query origin, expected) — `*` matches every origin
    // including opaque ones; a named origin matches exactly its tuple
    // (scheme and port included); `self` is the document's origin only.
    let cases: [(&str, &Origin, bool); 12] = [
        ("camera=*", &me, true),
        ("camera=*", &evil, true),
        ("camera=(*)", &evil, true),
        ("camera=(self)", &me, true),
        ("camera=(self)", &scheme_swap, false),
        ("camera=(self)", &other_port, false),
        (r#"camera=("https://widget.example")"#, &widget, true),
        (r#"camera=("https://widget.example")"#, &evil, false),
        (r#"camera=("https://widget.example")"#, &me, false),
        (r#"camera=(self "https://widget.example")"#, &me, true),
        (r#"camera=("https://widget.example:443")"#, &widget, true),
        (r#"camera=("http://widget.example")"#, &widget, false),
    ];
    let engine = PolicyEngine::new(LocalSchemeBehavior::FreshPolicy);
    for (header, query, expected) in cases {
        let declared = parse_permissions_policy(header).unwrap();
        let doc = engine.document_for_top_level(me.clone(), declared);
        assert_eq!(
            doc.is_enabled_for(Permission::Camera, query),
            expected,
            "{header} queried at {query}"
        );
    }

    // Wildcard reaches opaque origins; named origins and `self` never do.
    let opaque = Origin::opaque();
    for (header, expected) in [
        ("camera=*", true),
        ("camera=(self)", false),
        (r#"camera=("https://widget.example")"#, false),
    ] {
        let declared = parse_permissions_policy(header).unwrap();
        let doc = engine.document_for_top_level(me.clone(), declared);
        assert_eq!(
            doc.is_enabled_for(Permission::Camera, &opaque),
            expected,
            "{header} queried at opaque origin"
        );
    }

    // A sandboxed (opaque-origin) frame: self-default features die, a
    // `camera *` delegation still reaches it.
    let sandboxed = Origin::opaque();
    let parent = engine.document_for_top_level(me.clone(), Default::default());
    let plain = engine.document_for_frame(
        &parent,
        &FramingContext {
            allow: None,
            src_origin: Some(widget.clone()),
        },
        sandboxed.clone(),
        Default::default(),
        false,
    );
    assert!(!plain.is_enabled_for(Permission::Camera, &sandboxed));
    let starred = parse_allow_attribute("camera *");
    let delegated = engine.document_for_frame(
        &parent,
        &FramingContext {
            allow: Some(&starred),
            src_origin: Some(widget),
        },
        sandboxed.clone(),
        Default::default(),
        false,
    );
    assert!(delegated.is_enabled_for(Permission::Camera, &sandboxed));
}

#[test]
fn malformed_structured_field_headers_are_dropped_whole() {
    // RFC 8941 §4.3.3: any parse error fails the entire header. Each row
    // is one malformation class; a trailing valid directive proves the
    // *whole* header is dropped, not just the bad member.
    let invalid = [
        // Unquoted keyword (Feature-Policy syntax in a PP header): `'`
        // cannot start a token.
        "camera 'none', microphone=()",
        // Trailing comma.
        "camera=(), ",
        // Unterminated inner list.
        "camera=(self, microphone=()",
        // Nested inner list — RFC 8941 inner lists hold only items.
        "camera=((self)), microphone=()",
        // Uppercase key.
        "Camera=(), microphone=()",
        // Duplicate *parameter* keys are legal, but a bad key char fails.
        "camera=();Report-To=\"x\", microphone=()",
        // Integer over 15 digits.
        "camera=(), x=1000000000000000",
        // Decimal with more than 3 fractional digits.
        "camera=(), x=1.2345",
        // Trailing decimal point.
        "camera=(), x=1.",
        // Sign without a digit.
        "camera=(), x=-.5",
        // Missing comma between members.
        "camera=() microphone=()",
        // TAB inside an inner list (only SP separates items).
        "camera=(self\tself)",
        // Non-ASCII in a string.
        "camera=(\"caf\u{e9}\")",
    ];
    for header in invalid {
        assert!(
            parse_permissions_policy(header).is_err(),
            "expected {header:?} to be rejected"
        );
    }

    // Edge cases that must PARSE: bare keys (boolean true ⇒ `self` in
    // PP), duplicate dictionary keys (last wins per RFC 8941, though PP
    // lookup takes the first directive), 15-digit integers, parameters.
    let valid = [
        "camera",
        "camera, camera=()",
        "camera=(), x=999999999999999",
        "camera=(self);report-to=\"endpoint\"",
        "camera=(self self)",
        "*=()",
    ];
    for header in valid {
        assert!(
            parse_permissions_policy(header).is_ok(),
            "expected {header:?} to parse"
        );
    }
}

#[test]
fn feature_policy_applies_only_without_permissions_policy() {
    use browser::{Browser, BrowserConfig};
    use netsim::{ContentProvider, ProviderResult, Response, SimClock, SimNetwork, SiteBehavior};

    // Four precedence cases end-to-end: (PP header, FP header, camera?).
    struct Headers(Option<&'static str>, Option<&'static str>);
    impl ContentProvider for Headers {
        fn resolve(&self, url: &Url) -> ProviderResult {
            let mut response = Response::html(url.clone(), "<p>x</p>");
            if let Some(pp) = self.0 {
                response = response.with_header("Permissions-Policy", pp);
            }
            if let Some(fp) = self.1 {
                response = response.with_header("Feature-Policy", fp);
            }
            ProviderResult::Content {
                response,
                behavior: SiteBehavior::default(),
            }
        }
    }

    let camera_enabled = |pp: Option<&'static str>, fp: Option<&'static str>| {
        let mut b = Browser::new(SimNetwork::new(Headers(pp, fp)), BrowserConfig::default());
        let mut clock = SimClock::new();
        let v = b
            .visit(&Url::parse("https://example.org/").unwrap(), &mut clock)
            .unwrap();
        v.top_frame()
            .unwrap()
            .allowed_features
            .contains(Permission::Camera)
    };

    // Valid PP beats a contradicting FP, in both directions.
    assert!(!camera_enabled(Some("camera=()"), Some("camera *")));
    assert!(camera_enabled(Some("camera=(self)"), Some("camera 'none'")));
    // Invalid PP: dropped to defaults; the FP is still NOT consulted.
    assert!(camera_enabled(Some("camera 'none'"), Some("camera 'none'")));
    // No PP at all: FP governs.
    assert!(!camera_enabled(None, Some("camera 'none'")));
    // FP's unquoted-keyword footgun: `self` unquoted is an unrecognized
    // entry, so the directive declares an EMPTY allowlist — disabling
    // the feature its author meant to keep.
    assert!(!camera_enabled(None, Some("camera self")));
}
