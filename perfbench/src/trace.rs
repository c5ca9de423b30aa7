//! In-memory spans recorded around calls into the repository's crates.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! created), the span that caused it and the worker that ran it. Spans
//! are kept in memory while the workload runs and written out as JSON
//! lines at the end; a layer's self time is its spans' durations minus
//! the part covered by their child spans.
//!
//! A disabled tracer records nothing and adds one branch per call, so
//! the untraced run measures the program, not the tracing.

use rev_core::{analyze_and_link, linked_tables, RevConfig, RevSimulator};
use rev_workloads::SpecProfile;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub worker: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

thread_local! {
    /// The open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder shared by every worker of one workload run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span whose parent is this thread's innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, worker: usize, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.record(name, parent, worker, f)
    }

    /// Runs `f` inside a span with an explicit parent: the root of a
    /// worker thread's spans, whose cause is on another thread.
    pub fn span_under<T>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        worker: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        self.record(name, parent, worker, f)
    }

    /// The innermost open span of this thread (the parent to hand to
    /// worker threads).
    pub fn current(&self) -> Option<u64> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    fn record<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        worker: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span store poisoned by a panicking worker").push(Span {
            id,
            parent,
            name,
            worker,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals (clipped to the span), summed by name, seconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_default() += self_ns as f64 / 1e9;
    }
    out
}

/// Total duration per span name, seconds.
pub fn total_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += s.dur_s();
    }
    out
}

/// Seconds recorded under `name` in a per-name map; 0 for a layer the
/// workload never called.
pub fn secs(times: &BTreeMap<&'static str, f64>, name: &str) -> f64 {
    times.get(name).copied().unwrap_or(0.0)
}

/// Builds a cold simulator for `profile` through the public pieces, one
/// span per call (`workloads.generate`, `prog.analyze`,
/// `sigtable.linked_tables`, `core.assemble`); returns it with the summed
/// size of its signature-table images.
pub fn build_traced(
    profile: &SpecProfile,
    config: RevConfig,
    tracer: &Tracer,
    worker: usize,
) -> (RevSimulator, u64) {
    let program = tracer.span("workloads.generate", worker, || rev_workloads::generate(profile));
    tracer
        .span("prog.analyze", worker, || analyze_and_link(&program, config.bb_limits))
        .expect("generated programs analyze");
    let (tables, stats) = tracer
        .span("sigtable.linked_tables", worker, || linked_tables(&program, &config))
        .expect("generated programs build tables");
    let image_bytes = stats.iter().map(|s| s.image_bytes as u64).sum();
    let sim = tracer
        .span("core.assemble", worker, || {
            RevSimulator::with_prebuilt(program, config, tables, stats)
        })
        .expect("prebuilt tables assemble");
    (sim, image_bytes)
}

/// Writes the spans as JSON lines to `path` (best effort: a failed write
/// loses the span file, never the measurement).
pub fn write_spans(spans: &[Span], path: &std::path::Path) {
    use std::fmt::Write as _;
    let mut text = String::new();
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"worker\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.worker, s.start_ns, s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: could not write spans to {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span { id, parent, name, worker: 0, start_ns: a, end_ns: b }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "outer", 0, 100),
            span(2, Some(1), "inner", 10, 40),
            span(3, Some(1), "inner", 30, 50),
            span(4, Some(1), "inner", 90, 120),
        ];
        let st = self_times(&spans);
        assert!((st["outer"] - 50e-9).abs() < 1e-15, "{st:?}");
        assert!((st["inner"] - 80e-9).abs() < 1e-15, "{st:?}");
    }

    #[test]
    fn nested_spans_find_their_parent() {
        let t = Tracer::new(true);
        t.span("a", 0, || t.span("b", 0, || ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let a = spans.iter().find(|s| s.name == "a").unwrap();
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(b.parent, Some(a.id));
        assert_eq!(a.parent, None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
