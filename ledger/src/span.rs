//! In-memory spans recorded from the benchmark's side of each call into a
//! product crate. One tracer belongs to one thread, so recording a span is
//! two clock reads and a `Vec` push; everything is written out at exit.

use crate::json::Value;
use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request (or training step, or chunk) share this.
    pub request: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), enabled: true }
    }

    /// A tracer that records nothing and reads no clock: untraced runs pass
    /// it through the same code the traced runs use.
    pub fn off() -> Self {
        Self { enabled: false, ..Self::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it stays zero-length until [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, request });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Records `f` as a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    #[cfg(test)]
    fn push_raw(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-span self time in nanoseconds: the span's duration minus the
    /// durations of the spans naming it as parent (each subtracted once,
    /// from its direct parent only).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Self-time samples in microseconds, grouped by span name.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            out.entry(span.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Time per `(span name, request)` in microseconds: the durations of
    /// all spans of that name in that request, summed (a stage called K
    /// times in one request counts once, with its K durations added).
    pub fn per_request_us(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for span in &self.spans {
            *out.entry(span.name).or_default().entry(span.request).or_default() +=
                (span.end_ns - span.start_ns) as f64 / 1e3;
        }
        out
    }

    /// Median over requests of [`Tracer::per_request_us`], per span name:
    /// what a layer metric in microseconds reports.
    pub fn median_us(&self) -> BTreeMap<&'static str, f64> {
        self.per_request_us()
            .into_iter()
            .map(|(name, by)| (name, median(&by.into_values().collect::<Vec<_>>())))
            .collect()
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, context: Value) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::obj([
                    ("id", Value::Num(id as f64)),
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                    ("request", Value::Num(s.request as f64)),
                ])
            })
            .collect();
        Value::obj([("context", context), ("spans", Value::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, request: 1 }
    }

    #[test]
    fn children_are_subtracted_once_from_their_direct_parent() {
        let mut t = Tracer::new();
        let request = t.push_raw(raw("request", 0, 1000, None));
        let stage = t.push_raw(raw("stage", 100, 700, Some(request)));
        t.push_raw(raw("kernel", 200, 300, Some(stage)));
        t.push_raw(raw("kernel", 300, 500, Some(stage)));
        t.push_raw(raw("other", 700, 900, Some(request)));
        // request: 1000 - 600 (stage) - 200 (other); the kernels are the
        // stage's children and must not be taken from the request again.
        assert_eq!(t.self_times_ns(), vec![200, 300, 100, 200, 200]);
        let by_name = t.self_us_by_name();
        assert_eq!(by_name["kernel"], vec![0.1, 0.2]);
        assert_eq!(by_name["request"], vec![0.2]);
    }

    #[test]
    fn parents_are_found_by_id_not_by_order_or_name() {
        let mut t = Tracer::new();
        // Two same-named parents; the child names the second.
        let first = t.push_raw(raw("request", 0, 100, None));
        let second = t.push_raw(raw("request", 100, 300, None));
        t.push_raw(raw("stage", 150, 250, Some(second)));
        let own = t.self_times_ns();
        assert_eq!(own[first], 100);
        assert_eq!(own[second], 100);
    }

    #[test]
    fn a_child_longer_than_its_parent_clamps_to_zero() {
        let mut t = Tracer::new();
        let p = t.push_raw(raw("p", 10, 20, None));
        t.push_raw(raw("c", 0, 100, Some(p)));
        assert_eq!(t.self_times_ns()[p], 0);
    }

    #[test]
    fn per_request_time_adds_repeated_stages_within_a_request() {
        let mut t = Tracer::new();
        t.push_raw(Span { name: "spmm", start_ns: 0, end_ns: 1000, parent: None, request: 1 });
        t.push_raw(Span { name: "spmm", start_ns: 1000, end_ns: 3000, parent: None, request: 1 });
        t.push_raw(Span { name: "spmm", start_ns: 0, end_ns: 500, parent: None, request: 2 });
        let by = t.per_request_us();
        assert_eq!(by["spmm"][&1], 3.0);
        assert_eq!(by["spmm"][&2], 0.5);
        assert_eq!(t.median_us()["spmm"], 1.75);
    }

    #[test]
    fn recorded_spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", None, 7);
        let got = t.time("inner", Some(outer), 7, || 41 + 1);
        t.end(outer);
        assert_eq!(got, 42);
        assert_eq!(t.len(), 2);
        let doc = t.to_json(Value::Null);
        let spans = doc.get("spans").and_then(Value::as_arr).expect("spans");
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(spans[1].get("request").and_then(Value::as_f64), Some(7.0));
        assert_eq!(crate::json::parse(&doc.compact()).expect("round trip"), doc);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let outer = t.begin("outer", None, 1);
        assert_eq!(t.time("inner", Some(outer), 1, || 5), 5);
        t.end(outer);
        assert_eq!(t.len(), 0);
    }
}
