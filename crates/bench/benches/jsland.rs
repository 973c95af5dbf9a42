//! Script-engine throughput: the tree-walking referee vs the bytecode
//! VM (`ScriptEngine`) on the workloads crawls actually run.
//!
//! Both engines charge identical step counts (the lockstep differential
//! pins that down), so steps/sec is a fair cross-engine unit: it is the
//! same work, timed. The record pass writes `BENCH_jsland.json` with the
//! headline speedup, the slowest and fastest of its timed rounds, the
//! VM's inline-cache hit rate and the host's CPU count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

use jsland::reference::Interpreter;
use jsland::{Engine, RecordingHooks, ScriptEngine, ScriptSource, StepPool};

/// Per-run step budget — high enough that no workload trips it.
const BUDGET: u64 = 2_000_000;

/// A loop-heavy bundled script (IIFE-wrapped, the bundler idiom): tight
/// numeric work on function locals — fingerprinting bundles run
/// thousands of arithmetic ops per probe — plus a host-probing loop
/// that hammers one member/method chain. The cases frame slots and
/// inline caches are for.
fn hot_loop() -> String {
    "var fingerprint = (function () {\n\
       var total = 0;\n\
       var step = 3;\n\
       for (var i = 0; i < 2000; i = i + 1) {\n\
         var probe = total + i;\n\
         if (probe > 100) { total = total + step; } else { total = total + 1; }\n\
       }\n\
       for (var j = 0; j < 50; j = j + 1) {\n\
         navigator.permissions.query({name: 'camera'});\n\
       }\n\
       return total;\n\
     })();\n"
        .to_string()
}

/// A representative page script: the webgen snippets a median site
/// serves, concatenated the way `<script>` blocks run in order.
fn page_mix() -> String {
    [
        webgen::scripts::general_check_feature_policy("camera"),
        webgen::scripts::permissions_query("geolocation"),
        webgen::scripts::battery(true),
        webgen::scripts::storage_access(),
        webgen::scripts::permission_helper_class("notifications"),
        webgen::scripts::closure_probe(),
        webgen::scripts::async_gum_flow(),
        webgen::scripts::chat_widget_messaging(),
        webgen::scripts::consent_banner(),
    ]
    .join("\n")
}

/// Runs one fresh engine over `src` (timers drained, like a page visit)
/// and returns the exact steps charged.
fn run_once<E: Engine>(mut engine: E, src: &str) -> u64 {
    let mut pool = StepPool::limited(BUDGET);
    let mut hooks = RecordingHooks::default();
    let _ = engine.run_pooled(src, ScriptSource::inline(), &mut hooks, &mut pool);
    engine.drain_timers_pooled(&mut hooks, &mut pool);
    BUDGET - pool.remaining()
}

fn interp_once(src: &str) -> u64 {
    run_once(Interpreter::with_budget(BUDGET), src)
}

fn vm_once(src: &str) -> u64 {
    run_once(ScriptEngine::with_budget(BUDGET), src)
}

fn engines(c: &mut Criterion) {
    for (name, src) in [("hot_loop", hot_loop()), ("page_mix", page_mix())] {
        let steps = interp_once(&src);
        assert_eq!(
            steps,
            vm_once(&src),
            "{name}: engines disagree on step charges"
        );
        let group_name = format!("jsland_{name}");
        let mut group = c.benchmark_group(group_name.as_str());
        group.throughput(Throughput::Elements(steps));
        for (engine, once) in [("interp", interp_once as fn(&str) -> u64), ("vm", vm_once)] {
            group.bench_with_input(BenchmarkId::from_parameter(engine), &once, |b, once| {
                b.iter(|| black_box(once(&src)))
            });
        }
        group.finish();
    }
}

/// Times `iters` fresh runs of `once` and returns steps/sec (compile
/// included for the VM — a crawl compiles every script it meets exactly
/// once).
fn steps_per_sec(once: fn(&str) -> u64, src: &str, iters: u32) -> f64 {
    let steps = once(src);
    let start = Instant::now();
    for _ in 0..iters {
        black_box(once(src));
    }
    steps as f64 * iters as f64 / start.elapsed().as_secs_f64()
}

/// Timed rounds per workload; each round times both engines back to
/// back, so host drift moves a round's pair together.
const ROUNDS: usize = 3;

/// The slowest and fastest of `values`.
fn spread(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
        (lo.min(v), hi.max(v))
    })
}

/// Headline record: interp vs VM steps/sec per workload (the best
/// round, with the slowest and fastest beside it) plus the VM's
/// inline-cache hit rate, written to `BENCH_jsland.json` with the
/// host's CPU count.
fn record_engines(_c: &mut Criterion) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut entries = Vec::new();
    for (name, src, iters) in [
        ("hot_loop", hot_loop(), 400u32),
        ("page_mix", page_mix(), 2000),
    ] {
        let steps = interp_once(&src);
        let rounds: Vec<(f64, f64)> = (0..ROUNDS)
            .map(|_| {
                (
                    steps_per_sec(interp_once, &src, iters),
                    steps_per_sec(vm_once, &src, iters),
                )
            })
            .collect();
        let (slow_interp, interp) = spread(&rounds.iter().map(|r| r.0).collect::<Vec<_>>());
        let (slow_vm, vm) = spread(&rounds.iter().map(|r| r.1).collect::<Vec<_>>());
        let speedups: Vec<f64> = rounds.iter().map(|(i, v)| v / i).collect();
        let (low_speedup, high_speedup) = spread(&speedups);
        let (hits, misses) = {
            let mut pool = StepPool::limited(BUDGET);
            let mut hooks = RecordingHooks::default();
            let mut eng = ScriptEngine::with_budget(BUDGET);
            let _ = eng.run_pooled(&src, ScriptSource::inline(), &mut hooks, &mut pool);
            eng.drain_timers_pooled(&mut hooks, &mut pool);
            eng.ic_stats()
        };
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        let speedup = vm / interp;
        println!(
            "jsland {name}: {steps} steps/run, interp {interp:.0} steps/s, \
             vm {vm:.0} steps/s ({speedup:.2}x, rounds {low_speedup:.2}-{high_speedup:.2}x), \
             IC {hits}/{} hits ({:.1}%)",
            hits + misses,
            hit_rate * 100.0,
        );
        entries.push(format!(
            "    {{\n      \"workload\": \"{name}\",\n      \"steps_per_run\": {steps},\n      \
             \"interp_steps_per_sec\": {interp:.0},\n      \
             \"interp_steps_per_sec_range\": [{slow_interp:.0}, {interp:.0}],\n      \
             \"vm_steps_per_sec\": {vm:.0},\n      \
             \"vm_steps_per_sec_range\": [{slow_vm:.0}, {vm:.0}],\n      \
             \"vm_speedup\": {speedup:.2},\n      \
             \"vm_speedup_range\": [{low_speedup:.2}, {high_speedup:.2}],\n      \
             \"ic_hits\": {hits},\n      \"ic_misses\": {misses},\n      \
             \"ic_hit_rate\": {hit_rate:.4}\n    }}"
        ));
    }
    let json = format!(
        "{{\n  \"host_cpus\": {host_cpus},\n  \"rounds\": {ROUNDS},\n  \
         \"workloads\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let out = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_jsland.json");
    std::fs::write(&out, &json).expect("write BENCH_jsland.json");
}

criterion_group!(jsland_engines, engines, record_engines);
criterion_main!(jsland_engines);
