//! In-memory spans recorded by the benchmark around each call it makes into
//! a layer of the system. Nothing inside the program is instrumented: a span
//! covers the whole public call, and nesting comes from the benchmark's own
//! call structure (an arrival span holds the WAL append, the graph publish
//! and the score it triggers).
//!
//! With tracing off, [`Tracer::span`] only runs the closure: no clock read,
//! no allocation, so the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call. `parent` is 0 for a root span; `req` groups the spans
/// of one request or arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span. `f` receives the span's id (0 when tracing is
    /// off) to pass as the parent of nested spans.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                layer,
                name,
                req,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .clone()
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.layer, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per layer in seconds: each span's duration minus the part of
/// its interval covered by its direct children (overlapping children count
/// once), summed by the span's layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: layer,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        // root [0,100) holds a [10,40) and b [30,60) (overlapping) and
        // c [90,120) (runs past the root's end); a holds a grandchild.
        let spans = vec![
            span(1, 0, "bench", 0, 100),
            span(2, 1, "serve", 10, 40),
            span(3, 1, "serve", 30, 60),
            span(4, 1, "ingest", 90, 120),
            span(5, 2, "gnn", 15, 25),
        ];
        let t = self_time_by_layer(&spans);
        let ns = |layer: &str| (t[layer] * 1e9).round() as u64;
        // Root: 100 minus union [10,60) ∪ [90,100) = 100 - 60.
        assert_eq!(ns("bench"), 40);
        // a: 30 - 10 (grandchild), b: 30 (no children).
        assert_eq!(ns("serve"), 50);
        assert_eq!(ns("ingest"), 30);
        assert_eq!(ns("gnn"), 10);
    }

    #[test]
    fn tracer_records_nesting_only_when_enabled() {
        let on = Tracer::new(true);
        on.span("bench", "outer", 0, 7, |outer| {
            assert_ne!(outer, 0);
            on.span("serve", "inner", outer, 7, |_| ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let total: f64 = self_time_by_layer(&spans).values().sum();
        assert!((total - outer.secs()).abs() < 1e-9);

        let off = Tracer::new(false);
        assert_eq!(off.span("bench", "outer", 0, 0, |id| id), 0);
        assert!(off.spans().is_empty());
    }
}
