//! Ablations for the design choices called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use staticscan::{AcScanner, NaiveScanner, Scanner};

/// Ablation 1 — static matcher: naive per-pattern substring search vs the
/// from-scratch Aho-Corasick automaton matching everything in one pass.
fn ablation_static_matcher(c: &mut Criterion) {
    // A realistic script corpus: one of each tracker + widget scripts.
    let mut corpus: Vec<String> = Vec::new();
    for t in webgen::trackers::CATALOG {
        corpus.push(webgen::trackers::tracker_source(t, 7, 42));
    }
    for w in webgen::widgets::CATALOG.iter().take(12) {
        corpus.push(webgen::widgets::frame_html(w, 7, 42));
    }
    let bytes: usize = corpus.iter().map(String::len).sum();

    let naive = NaiveScanner::new();
    let ac = AcScanner::new();
    // Sanity: both matchers agree on the whole corpus.
    for doc in &corpus {
        assert_eq!(naive.scan(doc), ac.scan(doc));
    }

    let mut group = c.benchmark_group("ablation_static_matcher");
    group.throughput(Throughput::Bytes(bytes as u64));
    group.bench_function("naive", |b| {
        b.iter(|| {
            for doc in &corpus {
                black_box(naive.scan(doc));
            }
        })
    });
    group.bench_function("aho_corasick", |b| {
        b.iter(|| {
            for doc in &corpus {
                black_box(ac.scan(doc));
            }
        })
    });
    group.finish();
}

/// Ablation 2 — policy memoization: the engine precomputes the inherited
/// policy per frame (one feature set) vs recomputing the frame policy for
/// every feature query, as a naive implementation would.
fn ablation_policy_memo(c: &mut Criterion) {
    use policy::engine::{FramingContext, PolicyEngine};
    use policy::header::{parse_permissions_policy, DeclaredPolicy};

    let engine = PolicyEngine::default();
    let top = engine.document_for_top_level(
        weburl::Url::parse("https://example.org/").unwrap().origin(),
        parse_permissions_policy("camera=(self), geolocation=(), fullscreen=*").unwrap(),
    );
    let allow = policy::parse_allow_attribute(webgen::widgets::LIVECHAT_ALLOW);
    let child_origin = weburl::Url::parse("https://widget.example/")
        .unwrap()
        .origin();
    let features: Vec<registry::Permission> = registry::policy_controlled_permissions().collect();

    let mut group = c.benchmark_group("ablation_policy_memo");
    // Memoized (production): build the frame policy once, query all.
    group.bench_function("memoized", |b| {
        b.iter(|| {
            let framing = FramingContext {
                allow: Some(&allow),
                src_origin: Some(child_origin.clone()),
            };
            let child = engine.document_for_frame(
                &top,
                &framing,
                child_origin.clone(),
                DeclaredPolicy::default(),
                false,
            );
            let mut enabled = 0usize;
            for f in &features {
                if child.allowed_to_use(*f) {
                    enabled += 1;
                }
            }
            black_box(enabled)
        })
    });
    // Recompute-per-query: rebuild the frame policy for every feature.
    group.bench_function("recompute_per_query", |b| {
        b.iter(|| {
            let mut enabled = 0usize;
            for f in &features {
                let framing = FramingContext {
                    allow: Some(&allow),
                    src_origin: Some(child_origin.clone()),
                };
                let child = engine.document_for_frame(
                    &top,
                    &framing,
                    child_origin.clone(),
                    DeclaredPolicy::default(),
                    false,
                );
                if child.allowed_to_use(*f) {
                    enabled += 1;
                }
            }
            black_box(enabled)
        })
    });
    group.finish();
}

/// Ablation 3 — obfuscation resilience: the cost of *running* scripts
/// (dynamic instrumentation, catches aliases) vs merely scanning them
/// (static matching, misses aliases) on the same source.
fn ablation_dynamic_vs_static(c: &mut Criterion) {
    let script = "\
        var api = navigator['per' + 'missions'];\n\
        api.query({name: 'camera'}).then(function (st) { var s = st; });\n\
        var gb = navigator['get' + 'Battery'];\n\
        gb.call(navigator).then(function (b) { var l = b.level; });\n";
    let ac = AcScanner::new();
    let mut group = c.benchmark_group("ablation_dynamic_vs_static");
    group.bench_function("static_scan_misses_obfuscation", |b| {
        b.iter(|| {
            let findings = ac.scan(black_box(script));
            assert!(findings.permissions.is_empty()); // blind to the alias
            black_box(findings)
        })
    });
    group.bench_function("dynamic_execution_catches_it", |b| {
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
            assert_eq!(hooks.calls.len(), 2); // sees both calls
            black_box(hooks.calls.len())
        })
    });
    group.finish();
}

/// Ablation 4 — per-visit response cache: the browser cache that real
/// crawls get for free from Chromium.
fn ablation_response_cache(c: &mut Criterion) {
    use crawler::{CrawlConfig, Crawler};
    use webgen::{PopulationConfig, WebPopulation};
    let population = WebPopulation::new(PopulationConfig { seed: 7, size: 96 });
    let mut group = c.benchmark_group("ablation_response_cache");
    group.sample_size(10);
    for (label, capacity) in [("uncached", 0usize), ("cached_64", 64)] {
        group.bench_function(label, |b| {
            let crawler = Crawler::new(CrawlConfig {
                cache_capacity: capacity,
                ..CrawlConfig::default()
            });
            b.iter(|| black_box(crawler.crawl(&population)))
        });
    }
    group.finish();
}

/// Ablation 5 — fault injection: what panic isolation + bounded retries
/// cost when faults actually fire, against the same crawl with the fault
/// layer disabled (the common case, which should be near-free).
fn ablation_fault_injection(c: &mut Criterion) {
    use crawler::{CrawlConfig, Crawler, FaultSpec};
    use webgen::{PopulationConfig, WebPopulation};
    let population = WebPopulation::new(PopulationConfig { seed: 7, size: 96 });
    let specs = [
        ("faults_off", FaultSpec::disabled()),
        (
            "faults_on",
            FaultSpec {
                seed: 99,
                panic_per_mille: 150,
                transient_per_mille: 250,
                transient_failures: 2,
            },
        ),
    ];
    // Injected panics unwind through catch_unwind by design; keep the
    // default hook from printing a backtrace per simulated crash.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut group = c.benchmark_group("ablation_fault_injection");
    group.sample_size(10);
    for (label, faults) in specs {
        group.bench_function(label, |b| {
            let crawler = Crawler::new(CrawlConfig {
                faults,
                ..CrawlConfig::default()
            });
            b.iter(|| black_box(crawler.crawl(&population)))
        });
    }
    group.finish();
    std::panic::set_hook(hook);
}

criterion_group!(
    ablations,
    ablation_static_matcher,
    ablation_policy_memo,
    ablation_dynamic_vs_static,
    ablation_response_cache,
    ablation_fault_injection,
);
criterion_main!(ablations);
