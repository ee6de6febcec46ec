//! In-memory spans recorded around the public calls into each layer.
//!
//! A traced run opens a span at every layer boundary it crosses: name,
//! start, end, the span that caused it and the request it belongs to.
//! Spans stay in memory while the run measures and are written out once
//! it ends. A layer's *self time* is its span's duration minus the part
//! of that interval its child spans cover, so the self times of a request
//! and its layers add up to the request's duration exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one thread. Spans nest: a span opened while another
/// is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch` (shared by every thread of a
    /// run so their spans line up).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span of `request`, child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.begin_at(name, request, start_ns)
    }

    /// Open a span whose start was taken earlier (e.g. a request's due
    /// time on an open-loop schedule).
    pub fn begin_at(&mut self, name: &'static str, request: u64, start_ns: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Record an already finished span (e.g. the wait between a request's
    /// due time and its start) as a child of the innermost open span.
    pub fn record_closed(&mut self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            request,
        });
    }

    /// Nanoseconds from the epoch to `at` (0 for instants before it).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span with no children.
    pub fn leaf<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Take the spans of another thread's tracer (same epoch), keeping
    /// their parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name aggregates of a trace: the self time of every span, in
/// recording order.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        out.entry(s.name).or_default().push(t as f64);
    }
    out
}

/// Durations (not self times) of the spans named `name`, in ns.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// The trace as JSON lines, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::with_capacity(spans.len() * 96);
    for (i, (s, own)) in spans.iter().zip(self_ns).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.name, s.request, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children from two threads may overlap; the parent is not
        // charged twice for the shared interval, nor for time outside it.
        let spans = vec![
            span("request", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 120, 170, Some(0)),
            span("c", 190, 260, Some(0)),
        ];
        // Covered: [100, 170) and [190, 200) = 80 of 100.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn self_times_add_up_to_the_request() {
        let spans = vec![
            span("request", 0, 1000, None),
            span("a", 0, 400, Some(0)),
            span("a.x", 100, 300, Some(1)),
            span("b", 400, 900, Some(0)),
        ];
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn tracer_links_nested_spans_and_absorbs_threads() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let outer = t.begin("outer", 7);
        t.leaf("inner", 7, || ());
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut other = Tracer::new(epoch);
        let o = other.begin("reader", 1);
        other.leaf("query", 1, || ());
        other.end(o);
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, Some(2));
        assert!(to_jsonl(t.spans()).lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new(Instant::now());
        let a = t.begin("a", 0);
        let _b = t.begin("b", 0);
        t.end(a);
    }
}
