//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each public
//! call into a product layer (tracing inside the product is a later
//! change). A span carries its name, start, end, the span that caused it
//! and the op it belongs to, plus a tag decided when it closes (which
//! path the call took) and a unit count (cells, sessions, …) measured at
//! the same boundary. A disabled tracer records nothing, so the timed
//! run pays one branch per call site.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span every op runs under.
pub const OP_SPAN: &str = "op";

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `routing.shortest_paths`.
    pub name: &'static str,
    /// Which path the call took (empty when there is only one).
    pub tag: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Index of the op this span ran under (`None` for set-up/probes).
    pub op: Option<u32>,
    /// Work units the call processed (0 when not counted).
    pub units: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: Option<u32>,
}

/// The recorder. Shared by reference (interior mutability) so mapper
/// wrappers can record from inside a product call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Handle of an open span (`None` when tracing is off).
pub type Open = Option<u32>;

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            inner: RefCell::default(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span under the innermost open one.
    pub fn begin(&self, name: &'static str) -> Open {
        if !self.enabled {
            return None;
        }
        let mut inner = self.inner.borrow_mut();
        let id = inner.spans.len() as u32;
        let span = Span {
            name,
            tag: "",
            start_ns: 0,
            end_ns: 0,
            parent: inner.open.last().copied(),
            op: inner.op,
            units: 0,
        };
        inner.spans.push(span);
        inner.open.push(id);
        // Read the clock last so bookkeeping stays outside the span.
        inner.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        Some(id)
    }

    /// Close a span, recording the path it took and the units it
    /// processed.
    pub fn end(&self, open: Open, tag: &'static str, units: u64) {
        let Some(id) = open else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        assert_eq!(inner.open.pop(), Some(id), "spans must nest");
        let span = &mut inner.spans[id as usize];
        span.end_ns = now;
        span.tag = tag;
        span.units = units;
    }

    /// Record `f` as one span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_units(name, 0, f)
    }

    /// Record `f` as one span that processed `units` work units.
    pub fn span_units<T>(&self, name: &'static str, units: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open, "", units);
        out
    }

    /// Open the root span of op `index`; every span begun before the
    /// matching [`Tracer::end_op`] belongs to that op.
    pub fn begin_op(&self, index: u32) -> Open {
        if self.enabled {
            self.inner.borrow_mut().op = Some(index);
        }
        self.begin(OP_SPAN)
    }

    /// Close an op's root span.
    pub fn end_op(&self, open: Open) {
        self.end(open, "", 0);
        if self.enabled {
            self.inner.borrow_mut().op = None;
        }
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.open.is_empty(), "spans still open");
        std::mem::take(&mut inner.spans)
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p as usize] = own[p as usize].saturating_sub(span.ns());
        }
    }
    own
}

/// Share of op time that no child span covers.
pub fn unexplained_share(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (span, own) in spans.iter().zip(own) {
        if span.name == OP_SPAN {
            total += span.ns();
            uncovered += own;
        }
    }
    if total == 0 {
        0.0
    } else {
        uncovered as f64 / total as f64
    }
}

/// Durations (ms) of the spans with this name whose tag passes `keep`.
pub fn durations_ms(spans: &[Span], name: &str, keep: impl Fn(&str) -> bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s.tag))
        .map(|s| s.ns() as f64 / 1e6)
        .collect()
}

/// Totals of one span name: calls, self time and units.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed duration, ns.
    pub ns: u64,
    /// Summed units.
    pub units: u64,
}

impl Totals {
    /// Self time per call in ms (0 when never called).
    pub fn self_ms_per_call(&self) -> f64 {
        ratio(self.self_ns as f64 / 1e6, self.calls as f64)
    }

    /// Self time per unit in ns (0 when no units were counted).
    pub fn self_ns_per_unit(&self) -> f64 {
        ratio(self.self_ns as f64, self.units as f64)
    }
}

/// `a / b`, or 0 when the layer did no work (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Totals of the spans with this name.
pub fn totals(spans: &[Span], name: &str) -> Totals {
    let own = self_times(spans);
    let mut t = Totals::default();
    for (span, own) in spans.iter().zip(own) {
        if span.name == name {
            t.calls += 1;
            t.self_ns += own;
            t.ns += span.ns();
            t.units += span.units;
        }
    }
    t
}

/// Render spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"self_ns\":{own},\"parent\":{},\"op\":{},\"units\":{}}}",
            s.name,
            s.tag,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.op),
            s.units
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op: Option<u32>,
    ) -> Span {
        Span {
            name,
            tag: "",
            start_ns,
            end_ns,
            parent,
            op,
            units: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(OP_SPAN, 0, 100, None, Some(0)),
            span("a", 10, 60, Some(0), Some(0)),
            span("b", 20, 50, Some(1), Some(0)),
            span("c", 70, 90, Some(0), Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        assert!((unexplained_share(&spans) - 0.3).abs() < 1e-12);
        assert_eq!(totals(&spans, "a").self_ns, 20);
    }

    #[test]
    fn recorder_nests_and_tags() {
        let tr = Tracer::new(true);
        let op = tr.begin_op(7);
        let outer = tr.begin("outer");
        tr.span_units("inner", 5, || ());
        tr.end(outer, "warm", 2);
        tr.end_op(op);
        tr.span("setup", || ());
        let spans = tr.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].units, 5);
        assert_eq!(spans[1].tag, "warm");
        assert_eq!(spans[2].op, Some(7));
        assert_eq!(spans[3].op, None);
        assert_eq!(spans[3].parent, None);
        assert!(to_json(&spans).contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let op = tr.begin_op(0);
        assert_eq!(tr.span("x", || 3), 3);
        tr.end_op(op);
        assert!(tr.take().is_empty());
    }
}
