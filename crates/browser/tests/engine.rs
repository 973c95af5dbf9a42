//! End-to-end engine tests over a small hand-built web.

use browser::{Browser, BrowserConfig, VisitError, VisitOutcome};
use netsim::{
    ContentProvider, FetchError, ProviderResult, Response, SimClock, SimNetwork, SiteBehavior,
};
use policy::engine::LocalSchemeBehavior;
use registry::Permission;
use weburl::Url;

/// A small fixed web: a publisher page embedding a chat widget (with
/// wildcard camera delegation), a lazy ad iframe, a srcdoc frame, and a
/// few special hosts for failure modes.
struct TinyWeb;

impl ContentProvider for TinyWeb {
    fn resolve(&self, url: &Url) -> ProviderResult {
        let host = url.host().unwrap_or("");
        let path = url.path();
        let content = |response: Response| ProviderResult::Content {
            response,
            behavior: SiteBehavior::default(),
        };
        match (host, path) {
            ("publisher.example", "/") => content(
                Response::html(
                    url.clone(),
                    r#"
                    <script src="https://cdn.tracker.example/lib.js"></script>
                    <script>navigator.permissions.query({name: "notifications"});</script>
                    <iframe src="https://chat.widget.example/w"
                            allow="camera *; microphone *; clipboard-read"></iframe>
                    <iframe src="https://ads.example/slot" loading="lazy"></iframe>
                    <iframe srcdoc="<script>navigator.getBattery();</script>"></iframe>
                    <button onclick="navigator.geolocation.getCurrentPosition(cb)">find me</button>
                    "#,
                )
                .with_header("Permissions-Policy", "geolocation=(self)"),
            ),
            ("cdn.tracker.example", "/lib.js") => content(Response::script(
                url.clone(),
                "document.featurePolicy.allowedFeatures(); navigator.getBattery();",
            )),
            ("chat.widget.example", "/w") => content(Response::html(
                url.clone(),
                // The widget never touches camera/microphone (the §5
                // over-permissioning pattern).
                r#"<script>console.log("chat ready");</script>"#,
            )),
            ("ads.example", "/slot") => content(
                Response::html(
                    url.clone(),
                    r#"<script>document.browsingTopics();</script>"#,
                )
                .with_header("Permissions-Policy", "ch-ua=*, ch-ua-mobile=*"),
            ),
            ("redirecting.example", "/") => {
                ProviderResult::Redirect(Url::parse("https://publisher.example/").unwrap())
            }
            ("slow.example", "/") => ProviderResult::Content {
                response: Response::html(url.clone(), "<p>slow</p>"),
                behavior: SiteBehavior {
                    latency_ms: 120_000,
                    ..SiteBehavior::default()
                },
            },
            ("ephemeral.example", "/") => ProviderResult::Content {
                response: Response::html(url.clone(), "<p>gone</p>"),
                behavior: SiteBehavior {
                    latency_ms: 50,
                    post_fetch_failure: Some(FetchError::EphemeralContext),
                },
            },
            ("attack.example", "/") => content(Response::html(
                url.clone(),
                // The Table 11 local-scheme attack: a data: iframe that
                // re-delegates camera to an attacker.
                r#"<iframe src="data:text/html,<iframe src='https://attacker.example/' allow='camera'></iframe>"></iframe>"#,
            )
            .with_header("Permissions-Policy", "camera=(self)")),
            ("attacker.example", "/") => content(Response::html(
                url.clone(),
                r#"<script>navigator.mediaDevices.getUserMedia({video: true});</script>"#,
            )),
            _ => ProviderResult::DnsFailure,
        }
    }
}

fn visit_with(config: BrowserConfig, url: &str) -> Result<browser::PageVisit, VisitError> {
    let mut b = Browser::new(SimNetwork::new(TinyWeb), config);
    let mut clock = SimClock::new();
    b.visit(&Url::parse(url).unwrap(), &mut clock)
}

fn visit(url: &str) -> browser::PageVisit {
    visit_with(BrowserConfig::default(), url).unwrap()
}

#[test]
fn builds_full_frame_tree() {
    let v = visit("https://publisher.example/");
    assert_eq!(v.outcome, VisitOutcome::Success);
    // top + chat + lazy ad + srcdoc = 4 frames.
    assert_eq!(v.frames.len(), 4);
    let top = v.top_frame().unwrap();
    assert_eq!(top.site.as_deref(), Some("publisher.example"));
    assert_eq!(v.embedded_frames().count(), 3);
}

#[test]
fn headers_collected_at_all_depths() {
    let v = visit("https://publisher.example/");
    let top = v.top_frame().unwrap();
    assert_eq!(
        top.permissions_policy_header.as_deref(),
        Some("geolocation=(self)")
    );
    let ad = v
        .frames
        .iter()
        .find(|f| f.site.as_deref() == Some("ads.example"))
        .unwrap();
    assert_eq!(
        ad.permissions_policy_header.as_deref(),
        Some("ch-ua=*, ch-ua-mobile=*")
    );
}

#[test]
fn iframe_attributes_collected() {
    let v = visit("https://publisher.example/");
    let chat = v
        .frames
        .iter()
        .find(|f| f.site.as_deref() == Some("widget.example"))
        .unwrap();
    let attrs = chat.iframe_attrs.as_ref().unwrap();
    assert!(attrs.allow.as_deref().unwrap().contains("camera *"));
    assert!(!chat.is_local_document);
}

#[test]
fn lazy_iframe_loaded_when_scrolling() {
    let v = visit("https://publisher.example/");
    assert!(v
        .frames
        .iter()
        .any(|f| f.site.as_deref() == Some("ads.example")));

    let no_scroll = visit_with(
        BrowserConfig {
            scroll_lazy_iframes: false,
            ..BrowserConfig::default()
        },
        "https://publisher.example/",
    )
    .unwrap();
    assert!(!no_scroll
        .frames
        .iter()
        .any(|f| f.site.as_deref() == Some("ads.example")));
}

#[test]
fn srcdoc_frame_is_local_and_runs_scripts() {
    let v = visit("https://publisher.example/");
    let srcdoc = v.frames.iter().find(|f| f.is_local_document).unwrap();
    assert!(srcdoc.iframe_attrs.as_ref().unwrap().has_srcdoc);
    assert_eq!(srcdoc.invocations.len(), 1);
    assert_eq!(srcdoc.invocations[0].api_path, "navigator.getBattery");
}

#[test]
fn third_party_script_attribution() {
    let v = visit("https://publisher.example/");
    let top = v.top_frame().unwrap();
    let battery = top
        .invocations
        .iter()
        .find(|r| r.api_path == "navigator.getBattery")
        .unwrap();
    assert_eq!(
        battery.script_url.as_deref(),
        Some("https://cdn.tracker.example/lib.js")
    );
    let query = top
        .invocations
        .iter()
        .find(|r| r.api_path == "navigator.permissions.query")
        .unwrap();
    assert_eq!(query.script_url, None); // inline → first-party
    assert_eq!(query.permissions, vec![Permission::Notifications]);
}

#[test]
fn interaction_gated_code_needs_interaction_mode() {
    let v = visit("https://publisher.example/");
    let top = v.top_frame().unwrap();
    assert!(
        !top.invocations
            .iter()
            .any(|r| r.api_path.contains("geolocation")),
        "no-interaction crawl must not see the click handler"
    );
    // But the handler source is collected for static analysis.
    assert!(top
        .scripts
        .iter()
        .any(|s| s.source.contains("getCurrentPosition")));

    let v = visit_with(
        BrowserConfig {
            interaction: true,
            ..BrowserConfig::default()
        },
        "https://publisher.example/",
    )
    .unwrap();
    let top = v.top_frame().unwrap();
    assert!(top
        .invocations
        .iter()
        .any(|r| r.api_path.contains("geolocation")));
}

#[test]
fn redirects_resolve_to_final_origin() {
    let v = visit("https://redirecting.example/");
    let top = v.top_frame().unwrap();
    assert_eq!(top.site.as_deref(), Some("publisher.example"));
    assert_eq!(v.requested_url, "https://redirecting.example/");
}

#[test]
fn slow_site_times_out() {
    let err = visit_with(BrowserConfig::default(), "https://slow.example/").unwrap_err();
    assert_eq!(err, VisitError::LoadTimeout);
}

#[test]
fn unreachable_site_reported() {
    let err = visit_with(BrowserConfig::default(), "https://missing.example/").unwrap_err();
    assert_eq!(err, VisitError::Unreachable);
}

#[test]
fn ephemeral_context_outcome() {
    let v = visit("https://ephemeral.example/");
    assert_eq!(v.outcome, VisitOutcome::EphemeralContext);
    assert!(v.frames.is_empty());
}

#[test]
fn widget_receives_delegated_but_unused_permissions() {
    let v = visit("https://publisher.example/");
    let chat = v
        .frames
        .iter()
        .find(|f| f.site.as_deref() == Some("widget.example"))
        .unwrap();
    // Delegated camera reaches the widget...
    assert!(chat.allowed_features.iter().any(|f| f == "camera"));
    // ...but the widget never calls any permission API: the §5 risk.
    assert!(chat.invocations.is_empty());
}

#[test]
fn local_scheme_attack_reproduces_in_engine() {
    // Actual (buggy) behaviour: the attacker frame gets camera.
    let v = visit("https://attack.example/");
    let attacker = v
        .frames
        .iter()
        .find(|f| f.site.as_deref() == Some("attacker.example"))
        .expect("attacker frame loaded through the data: document");
    assert!(attacker.allowed_features.iter().any(|f| f == "camera"));
    let gum = &attacker.invocations[0];
    assert!(!gum.policy_blocked, "hijack succeeds under FreshPolicy");

    // Expected behaviour: inheritance blocks the hijack.
    let v = visit_with(
        BrowserConfig {
            local_scheme_behavior: LocalSchemeBehavior::InheritParent,
            ..BrowserConfig::default()
        },
        "https://attack.example/",
    )
    .unwrap();
    let attacker = v
        .frames
        .iter()
        .find(|f| f.site.as_deref() == Some("attacker.example"))
        .unwrap();
    assert!(!attacker.allowed_features.iter().any(|f| f == "camera"));
    assert!(attacker.invocations[0].policy_blocked);
}

#[test]
fn client_hint_headers_dominate_embedded_docs() {
    let v = visit("https://publisher.example/");
    let ad = v
        .frames
        .iter()
        .find(|f| f.site.as_deref() == Some("ads.example"))
        .unwrap();
    let header = ad.permissions_policy_header.as_deref().unwrap();
    assert!(header.contains("ch-ua"));
    // Topics call recorded inside the ad frame.
    assert!(ad
        .invocations
        .iter()
        .any(|r| r.api_path == "document.browsingTopics"));
}

/// A page whose script parses fine but trips the bytecode compiler's
/// nesting-depth guard.
struct DeepNestSite;

impl ContentProvider for DeepNestSite {
    fn resolve(&self, url: &Url) -> ProviderResult {
        let soup = format!("<script>{}1;</script>", "1+".repeat(1100));
        ProviderResult::Content {
            response: Response::html(url.clone(), soup),
            behavior: SiteBehavior::default(),
        }
    }
}

#[test]
fn compile_failure_is_an_explicit_degradation_event() {
    // Big stack: the compiler's depth guard sits at 1000 recursive
    // frames, more than a default 2 MiB test thread holds in debug.
    std::thread::Builder::new()
        .stack_size(16 * 1024 * 1024)
        .spawn(|| {
            let mut b = Browser::new(SimNetwork::new(DeepNestSite), BrowserConfig::default());
            let mut clock = SimClock::new();
            let v = b
                .visit(&Url::parse("https://deep.example/").unwrap(), &mut clock)
                .unwrap();
            // The failure is recorded, never silently retried elsewhere:
            // the script ran on no engine and the visit carries the event.
            assert_eq!(v.outcome, VisitOutcome::Success);
            let top = v.top_frame().unwrap();
            assert_eq!(top.scripts[0].outcome, browser::ScriptOutcome::CompileError);
            assert!(top.invocations.is_empty());
            let kinds: Vec<_> = v.degradations.iter().map(|d| d.kind).collect();
            assert_eq!(kinds, vec![browser::DegradationKind::ScriptCompileError]);
            assert_eq!(v.degradations[0].kind.label(), "script-compile-error");
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn interp_and_vm_visits_are_byte_identical() {
    for url in [
        "https://publisher.example/",
        "https://attack.example/",
        "https://ads.example/slot",
    ] {
        let config = BrowserConfig {
            interaction: true,
            ..Default::default()
        };
        let mut referee = Browser::<_, jsland::reference::Interpreter>::with_engine(
            SimNetwork::new(TinyWeb),
            config.clone(),
        );
        let a = referee
            .visit(&Url::parse(url).unwrap(), &mut SimClock::new())
            .unwrap();
        let b = visit_with(config, url).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "engines diverged on {url}"
        );
    }
}

/// A page whose script registers 1,000 click handlers that each spin
/// forever.
struct ClickFlood;

impl ContentProvider for ClickFlood {
    fn resolve(&self, url: &Url) -> ProviderResult {
        ProviderResult::Content {
            response: Response::html(
                url.clone(),
                "<script>for (var i = 0; i < 1000; i++) {\
                 button.addEventListener('click', function () { while (true) { } });\
                 }</script>",
            ),
            behavior: SiteBehavior::default(),
        }
    }
}

#[test]
fn fired_handlers_draw_from_the_page_pool() {
    // Each handler may use the per-run budget, but all of them together
    // draw on the page pool: about five run, the rest are dropped, and
    // the drop is recorded once.
    let config = BrowserConfig {
        interaction: true,
        ..Default::default()
    };
    let mut b = Browser::new(SimNetwork::new(ClickFlood), config);
    let v = b
        .visit(
            &Url::parse("https://flood.example/").unwrap(),
            &mut SimClock::new(),
        )
        .unwrap();
    assert_eq!(v.outcome, VisitOutcome::Success);
    let labels: Vec<_> = v.degradations.iter().map(|d| d.kind.label()).collect();
    assert_eq!(labels, vec!["script-pool-exhausted"]);
}
