//! In-memory span recording for the traced run.
//!
//! A span is opened around each call the benchmark makes into a layer
//! (name, start, end, parent, rank). Spans stay in memory until the pass
//! that recorded them ends and is folded. A span's self time is its
//! duration minus the time its child spans cover; children of one parent
//! never overlap (the traced run is single-threaded), so summing self
//! time over every span gives exactly the time the root spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Marks a span without a parent.
const ROOT: u32 = u32::MAX;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer seam, e.g. `webgen.resolve`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root span.
    pub parent: u32,
    /// The rank the call served (0 when it served no single rank).
    pub rank: u64,
}

impl Span {
    /// Wall nanoseconds between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    rank: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            rank: Cell::new(0),
        }
    }

    /// A tracer that records nothing: [`Tracer::span`] only calls its
    /// closure. Runs the same code untraced, to measure what tracing costs.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the rank later spans are tagged with.
    pub fn set_rank(&self, rank: u64) {
        self.rank.set(rank);
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            let index = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: open.last().copied().unwrap_or(ROOT),
                rank: self.rank.get(),
            });
            open.push(index);
            index
        };
        let _closer = Closer {
            tracer: self,
            index,
        };
        f()
    }

    /// Takes the spans recorded so far, leaving the tracer empty. No span
    /// may be open.
    pub fn drain(&self) -> Vec<Span> {
        assert!(self.open.borrow().is_empty(), "drained with a span open");
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Ends a span and pops the open-span stack, also when the wrapped call
/// unwinds, so a caught panic inside a span cannot misparent later
/// spans.
struct Closer<'a> {
    tracer: &'a Tracer,
    index: u32,
}

impl Drop for Closer<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.index as usize].end_ns = end_ns;
        self.tracer.open.borrow_mut().pop();
    }
}

/// Per-layer totals over a finished trace.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LayerTotals {
    /// Self nanoseconds per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Nanoseconds covered by root spans.
    pub covered_ns: u64,
}

impl LayerTotals {
    /// Self nanoseconds of `name` (0 when no such span was recorded).
    pub fn self_of(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    /// Sum of every layer's self time.
    pub fn self_sum(&self) -> u64 {
        self.self_ns.values().sum()
    }

    /// Adds another trace's totals to these.
    pub fn add(&mut self, other: &LayerTotals) {
        for (name, ns) in &other.self_ns {
            *self.self_ns.entry(name).or_default() += ns;
        }
        self.covered_ns += other.covered_ns;
    }
}

/// A traced phase run as several passes over the same ranks, each
/// after an untraced pass of the same code so slow drift in machine speed
/// cancels out of the overhead. Traced passes are folded one by one so
/// spans never pile up.
#[derive(Debug, Default)]
pub struct Passes {
    /// Layer totals over every traced pass.
    pub totals: LayerTotals,
    /// Microseconds of `browser.visit` per rank and traced pass.
    pub visit_us: Vec<f64>,
    /// Wall nanoseconds of the traced passes.
    pub wall_ns: u64,
    /// Traced passes folded.
    pub count: u64,
    /// Wall nanoseconds of the untraced passes.
    pub untraced_ns: u64,
    /// Untraced passes run.
    pub untraced_count: u64,
}

impl Passes {
    /// Whether another pair of passes is due: at least one, then until
    /// the traced passes have taken `seconds`.
    pub fn more(&self, seconds: f64) -> bool {
        self.count == 0 || (self.wall_ns as f64) < seconds * 1e9
    }

    /// Runs and times one untraced pass.
    pub fn untraced<T>(&mut self, pass: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = pass();
        self.untraced_ns += started.elapsed().as_nanos() as u64;
        self.untraced_count += 1;
        value
    }

    /// Folds the traced pass that started at `started_ns` on `tracer`'s
    /// clock.
    pub fn absorb(&mut self, tracer: &Tracer, started_ns: u64) {
        self.wall_ns += tracer.now_ns() - started_ns;
        let spans = tracer.drain();
        self.totals.add(&layer_totals(&spans));
        self.visit_us.extend(
            per_rank_totals(&spans, "browser.visit")
                .into_iter()
                .map(|ns| ns as f64 / 1e3),
        );
        self.count += 1;
    }
}

/// Self time of each span: its duration minus the durations of its
/// direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != ROOT {
            child_ns[span.parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(span, children)| span.duration_ns().saturating_sub(children))
        .collect()
}

/// Folds a trace into per-layer totals.
pub fn layer_totals(spans: &[Span]) -> LayerTotals {
    let mut totals = LayerTotals::default();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        *totals.self_ns.entry(span.name).or_default() += self_ns;
        if span.parent == ROOT {
            totals.covered_ns += span.duration_ns();
        }
    }
    totals
}

/// Inclusive nanoseconds of every `name` span, summed per rank, in rank
/// order.
pub fn per_rank_totals(spans: &[Span], name: &str) -> Vec<u64> {
    let mut by_rank: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == name) {
        *by_rank.entry(span.rank).or_default() += span.duration_ns();
    }
    by_rank.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rank: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // visit [0,100) holds fetch [10,50) which holds resolve [20,45);
        // visit also holds a second fetch [60,70) without children.
        let spans = [
            span("visit", 0, 100, ROOT),
            span("fetch", 10, 50, 0),
            span("resolve", 20, 45, 1),
            span("fetch", 60, 70, 0),
            span("encode", 100, 130, ROOT),
        ];
        assert_eq!(self_times(&spans), vec![50, 15, 25, 10, 30]);
        let totals = layer_totals(&spans);
        assert_eq!(totals.self_of("visit"), 50);
        assert_eq!(totals.self_of("fetch"), 25);
        assert_eq!(totals.self_of("missing"), 0);
        // Self times partition exactly what the roots cover.
        assert_eq!(totals.covered_ns, 130);
        assert_eq!(totals.self_sum(), totals.covered_ns);
    }

    #[test]
    fn recorded_spans_nest_and_partition_root_time() {
        let tracer = Tracer::new();
        tracer.set_rank(7);
        let value = tracer.span("outer", || {
            tracer.span("inner", || std::hint::black_box((0..1000).sum::<u64>()))
                + tracer.span("inner", || 1)
        });
        assert_eq!(value, 499_501);
        tracer.set_rank(8);
        tracer.span("outer", || ());
        let spans = tracer.drain();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, ROOT);
        assert_eq!(spans[0].rank, 7);
        assert_eq!(spans[3].rank, 8);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        let totals = layer_totals(&spans);
        assert_eq!(totals.self_sum(), totals.covered_ns);
        assert_eq!(per_rank_totals(&spans, "outer").len(), 2);
    }

    #[test]
    fn passes_fold_drained_spans() {
        let tracer = Tracer::new();
        let mut passes = Passes::default();
        assert!(passes.more(0.0));
        for _ in 0..2 {
            let started = tracer.now_ns();
            for rank in 1..=3 {
                tracer.set_rank(rank);
                tracer.span("bench.rank", || tracer.span("browser.visit", || ()));
            }
            passes.absorb(&tracer, started);
        }
        assert!(!passes.more(0.0));
        assert_eq!(passes.count, 2);
        assert_eq!(passes.visit_us.len(), 6);
        assert!(tracer.drain().is_empty());
        assert_eq!(passes.totals.self_sum(), passes.totals.covered_ns);
        assert!(passes.totals.covered_ns <= passes.wall_ns);
        assert_eq!(passes.untraced(|| 7), 7);
        assert_eq!(passes.untraced_count, 1);
    }

    #[test]
    fn a_panicking_span_does_not_misparent_later_spans() {
        let tracer = Tracer::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tracer.span("outer", || tracer.span("inner", || panic!("boom")))
        }));
        assert!(caught.is_err());
        tracer.span("after", || ());
        let spans = tracer.drain();
        assert_eq!(spans[2].name, "after");
        assert_eq!(spans[2].parent, ROOT);
    }
}
