//! Substrate throughput: the parsers and the interpreter, measured on the
//! inputs the crawl actually produces.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn header_parsing(c: &mut Criterion) {
    let headers = [
        "camera=(), microphone=(), geolocation=()",
        r#"geolocation=(self "https://maps.example"), fullscreen=*, camera=()"#,
        "accelerometer=(), ambient-light-sensor=(), autoplay=(), battery=(), camera=(), \
         display-capture=(), document-domain=(), encrypted-media=(), geolocation=(), \
         gyroscope=(), magnetometer=(), microphone=(), midi=(), payment=(), \
         picture-in-picture=(), publickey-credentials-get=(), usb=(), xr-spatial-tracking=()",
    ];
    let bytes: usize = headers.iter().map(|h| h.len()).sum();
    let mut group = c.benchmark_group("header_parsing");
    group.throughput(Throughput::Bytes(bytes as u64));
    group.bench_function("permissions_policy", |b| {
        b.iter(|| {
            for h in &headers {
                black_box(policy::parse_permissions_policy(h).unwrap());
            }
        })
    });
    group.bench_function("validate", |b| {
        b.iter(|| {
            for h in &headers {
                black_box(policy::validate_header(h));
            }
        })
    });
    group.finish();
}

fn allow_attribute_parsing(c: &mut Criterion) {
    let attrs = [
        "camera",
        "camera *; microphone *",
        webgen::widgets::LIVECHAT_ALLOW,
        webgen::widgets::YOUTUBE_ALLOW,
    ];
    c.bench_function("allow_attribute_parsing", |b| {
        b.iter(|| {
            for a in &attrs {
                black_box(policy::parse_allow_attribute(a));
            }
        })
    });
}

fn policy_engine(c: &mut Criterion) {
    use policy::engine::{FramingContext, PolicyEngine};
    use policy::header::{parse_permissions_policy, DeclaredPolicy};
    let engine = PolicyEngine::default();
    let top = engine.document_for_top_level(
        weburl::Url::parse("https://example.org/").unwrap().origin(),
        parse_permissions_policy(r#"camera=(self "https://iframe.com"), geolocation=(self)"#)
            .unwrap(),
    );
    let allow = policy::parse_allow_attribute("camera; microphone *");
    let child_origin = weburl::Url::parse("https://iframe.com/").unwrap().origin();
    c.bench_function("policy_engine_frame_policy", |b| {
        b.iter(|| {
            let framing = FramingContext {
                allow: Some(&allow),
                src_origin: Some(child_origin.clone()),
            };
            black_box(engine.document_for_frame(
                &top,
                &framing,
                child_origin.clone(),
                DeclaredPolicy::default(),
                false,
            ))
        })
    });
}

fn html_scanning(c: &mut Criterion) {
    let page = webgen::site::page_html(7, 42);
    let mut group = c.benchmark_group("html_scanning");
    group.throughput(Throughput::Bytes(page.len() as u64));
    group.bench_function("scan_landing_page", |b| {
        b.iter(|| black_box(html::scan(&page)))
    });
    group.finish();
}

fn js_interpretation(c: &mut Criterion) {
    let script = "\
        var q = navigator.permissions.query;\n\
        q({name: 'camera'}).then(function (st) { var s = st.state; });\n\
        navigator['get' + 'Battery']().then(function (b) { var l = b.level; });\n\
        var feats = document.featurePolicy.allowedFeatures();\n\
        if (feats.includes('geolocation')) { navigator.geolocation.getCurrentPosition(function (p) {}); }\n";
    c.bench_function("jsland_tracker_script", |b| {
        b.iter(|| {
            let mut hooks = jsland::RecordingHooks::default();
            let mut engine = jsland::ScriptEngine::default();
            engine
                .run(
                    black_box(script),
                    jsland::ScriptSource::inline(),
                    &mut hooks,
                )
                .unwrap();
            engine.drain_timers(&mut hooks);
            black_box(hooks.calls.len())
        })
    });
}

fn url_parsing(c: &mut Criterion) {
    let urls = [
        "https://www.video-42.co.uk/embed?s=42&i=0",
        "https://pagead2.googlesyndication.com/ads?s=99",
        "data:text/html,<p>creative</p>",
        "https://example.org/a/b/../c?x=1#f",
    ];
    c.bench_function("weburl_parse", |b| {
        b.iter(|| {
            for u in &urls {
                black_box(weburl::Url::parse(u).unwrap());
            }
        })
    });
}

criterion_group!(
    substrates,
    header_parsing,
    allow_attribute_parsing,
    policy_engine,
    html_scanning,
    js_interpretation,
    url_parsing,
);
criterion_main!(substrates);
