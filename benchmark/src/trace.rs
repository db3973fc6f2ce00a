//! Spans recorded by the benchmark around its own calls into each layer
//! (`{name, start_ns, end_ns, parent, request_id}`), kept in memory and
//! written out when the traced run ends. No tracing inside the program.
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. When built with [`Tracer::off`] every call
/// still runs the wrapped closure but records nothing — the untraced twin
/// of a traced replay, whose difference is the tracing overhead.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request_id: u64,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        }
    }

    /// Starts the next request; spans opened from now on carry its id.
    pub fn next_request(&mut self) {
        self.request_id += 1;
    }

    /// Runs `f` inside a span named `name`, nested under whatever span is
    /// open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request_id: self.request_id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total self time in ns).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        self_times(&self.spans)
    }

    /// The whole trace as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time by span name: duration minus the durations of direct
/// children (children of one parent never overlap — spans nest strictly,
/// because one thread opens and closes them in stack order).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += ns;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 5, 15, Some(0)),
            span("select", 20, 80, Some(0)),
            span("sort", 60, 75, Some(2)),
            span("request", 200, 230, None),
        ];
        let t = self_times(&spans);
        // request: (100 - 10 - 60) + 30; select: 60 - 15.
        assert_eq!(t["request"], (2, 60));
        assert_eq!(t["parse"], (1, 10));
        assert_eq!(t["select"], (1, 45));
        assert_eq!(t["sort"], (1, 15));
        let total: u64 = t.values().map(|v| v.1).sum();
        assert_eq!(total, 130, "self times add up to the root durations");
    }

    #[test]
    fn tracer_nests_and_tags_requests_and_off_records_nothing() {
        let mut t = Tracer::on();
        t.next_request();
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        t.next_request();
        t.span("outer", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].name, s[0].parent, s[0].request_id),
            ("outer", None, 1)
        );
        assert_eq!(
            (s[1].name, s[1].parent, s[1].request_id),
            ("inner", Some(0), 1)
        );
        assert_eq!(s[2].request_id, 2);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(t.to_json().contains("\"name\":\"inner\""));

        let mut off = Tracer::off();
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
