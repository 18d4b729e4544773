//! Outside-in tracing: spans recorded by the benchmark's own loops around
//! each call into a layer's public functions, plus a counting allocator.
//!
//! Spans live in memory (`{name, start, end, parent, rep}`) and are written
//! out once, when the traced run ends. A layer's *busy* time is its self
//! time: the span's duration minus the part its child spans cover. With the
//! tracer off, `enter`/`exit` cost one branch each, so the loops the
//! benchmark owns run the same code traced and untraced.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with an allocation counter that only ticks while a
/// traced run has switched it on (untraced runs pay one relaxed load).
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed atomic
// counter that never touches the allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was returned by `System` for `layout` (every path
        // above allocates through it) and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Switch allocation counting on or off (process-wide, all threads).
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far (allocs, zeroed allocs and reallocs).
pub fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Which repetition of the workload this span belongs to.
    pub rep: u32,
    /// Allocations between start and end, children included.
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` while the tracer is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<u32>);

impl SpanId {
    /// The handle of a span that was not opened; closing it does nothing.
    pub const NONE: SpanId = SpanId(None);
}

/// Single-threaded span recorder for the benchmark's driver thread.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self { enabled: false, origin: Instant::now(), rep: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self { enabled: true, ..Self::off() }
    }

    /// Label spans recorded from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
            allocs: allocs_now(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in the order they opened");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.allocs = allocs_now() - span.allocs;
    }

    /// Run `f` inside a span (for calls that open no span of their own).
    pub fn scoped<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Totals of one span name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerStat {
    pub calls: u64,
    /// Self time: durations minus what direct children cover.
    pub busy_ns: u64,
    /// Self allocations: allocations minus the direct children's.
    pub allocs: u64,
    /// Whole duration of every call, in call order.
    pub durations_ns: Vec<u64>,
}

/// Fold spans into per-name totals with self time and self allocations.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
            child_allocs[p as usize] += s.allocs;
        }
    }
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let stat = out.entry(s.name).or_default();
        stat.calls += 1;
        stat.busy_ns += s.dur_ns().saturating_sub(child_ns[i]);
        stat.allocs += s.allocs.saturating_sub(child_allocs[i]);
        stat.durations_ns.push(s.dur_ns());
    }
    out
}

/// Spans as a JSON document (`benchmark/out/trace-<workload>.json`).
pub fn spans_to_json<'a>(
    workload: &str,
    spans: impl Iterator<Item = &'a Span>,
) -> serde_json::Value {
    let rows: Vec<serde_json::Value> = spans
        .map(|s| {
            serde_json::json!({
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": match s.parent {
                    Some(p) => serde_json::Value::from(p),
                    None => serde_json::Value::Null,
                },
                "rep": s.rep,
                "allocs": s.allocs,
            })
        })
        .collect();
    serde_json::json!({ "workload": workload, "spans": rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, allocs: u64) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, rep: 0, allocs }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100) has children a [10,40) and b [50,70); a has child c [20,30).
        let spans = vec![
            span("root", 0, 100, None, 20),
            span("a", 10, 40, Some(0), 9),
            span("c", 20, 30, Some(1), 4),
            span("b", 50, 70, Some(0), 1),
            span("a", 70, 75, Some(0), 0),
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg["root"].busy_ns, 100 - 30 - 20 - 5);
        assert_eq!(agg["root"].allocs, 20 - 9 - 1);
        // Two calls of `a`: 30 - 10 (child c) + 5.
        assert_eq!(agg["a"].calls, 2);
        assert_eq!(agg["a"].busy_ns, 25);
        assert_eq!(agg["a"].allocs, 5);
        assert_eq!(agg["a"].durations_ns, vec![30, 5]);
        assert_eq!(agg["c"].busy_ns, 10);
        assert_eq!(agg["b"].busy_ns, 20);
        // Self times partition the root interval exactly.
        let total: u64 = agg.values().map(|s| s.busy_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn tracer_records_parents_and_disabled_tracer_records_nothing() {
        let mut tr = Tracer::on();
        tr.set_rep(3);
        let root = tr.enter("root");
        tr.scoped("leaf", || std::hint::black_box(1 + 1));
        let mid = tr.enter("mid");
        tr.scoped("leaf", || ());
        tr.exit(mid);
        tr.exit(root);
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent, s.rep)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None, 3),
                ("leaf", Some(0), 3),
                ("mid", Some(0), 3),
                ("leaf", Some(2), 3)
            ]
        );
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));

        let mut off = Tracer::off();
        let id = off.enter("root");
        off.exit(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn counting_allocator_counts_only_while_switched_on() {
        // Needs the binary's `#[global_allocator]`; this is the only test
        // that flips the switch, so the "off" half cannot race another test.
        let before = allocs_now();
        let v: Vec<Box<u64>> = (0..64).map(Box::new).collect();
        std::hint::black_box(&v);
        assert_eq!(allocs_now(), before, "counter moved while switched off");

        set_alloc_counting(true);
        let before = allocs_now();
        let w: Vec<Box<u64>> = (0..64).map(Box::new).collect();
        std::hint::black_box(&w);
        let delta = allocs_now() - before;
        set_alloc_counting(false);
        // 64 boxes plus the vector; other test threads may add more.
        assert!(delta >= 65, "expected at least 65 allocations, saw {delta}");
    }
}
