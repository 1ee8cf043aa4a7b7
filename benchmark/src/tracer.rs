//! Spans around the calls into each layer: name, start, end, the span
//! that caused it and the workload it explains. Kept in memory while
//! the traced run lasts, written once at its end as Chrome trace-event
//! JSON (open in `chrome://tracing` or <https://ui.perfetto.dev>).

use crate::json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The end-to-end workload this span helps explain.
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
}

/// Handle of an open span; `Tracer::end` takes it back.
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Off: `begin`/`end` do nothing, not even read the clock — the
    /// same staged code then prices the tracing itself.
    pub enabled: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::new(), stack: Vec::new(), enabled: true }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, workload: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, workload, start_ns, end_ns: start_ns, parent });
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, workload: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, workload);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Busy time of a layer, ms: the summed durations of its spans
    /// among `spans()[range]` (one pass of a stage that runs twice).
    /// Layer spans are leaves around one public call, so this is also
    /// their self time.
    pub fn busy_ms(&self, name: &str, range: std::ops::Range<usize>) -> f64 {
        self.spans[range].iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64).sum::<f64>() / 1e6
    }

    /// [`busy_ms`](Self::busy_ms) over the whole trace.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.busy_ms(name, 0..self.spans.len())
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, microsecond timestamps, the workload as the category.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let args = json::object(&[("id", i.to_string()), ("parent", parent)]);
            let event = json::object(&[
                ("name", json::string(s.name)),
                ("cat", json::string(s.workload)),
                ("ph", json::string("X")),
                ("ts", json::number(s.start_ns as f64 / 1e3)),
                ("dur", json::number((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", "1".to_string()),
                ("tid", "1".to_string()),
                ("args", args),
            ]);
            out.push_str(&event);
            out.push_str(if i + 1 == self.spans.len() { "\n" } else { ",\n" });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satwatch_analytics::expr::Json;

    #[test]
    fn nesting_self_time_and_chrome_round_trip() {
        let mut tr = Tracer::new();
        let outer = tr.begin("stage", "report_day");
        tr.span("layer.call", "report_day", || std::thread::sleep(std::time::Duration::from_millis(2)));
        tr.span("layer.call", "report_day", || ());
        tr.end(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (None, Some(0), Some(0)));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(tr.total_ms("layer.call") >= 2.0 && tr.total_ms("stage") >= tr.total_ms("layer.call"));
        // each range is divided into ms on its own, so only to rounding
        let parts = tr.busy_ms("layer.call", 0..2) + tr.busy_ms("layer.call", 2..3);
        assert!((parts - tr.total_ms("layer.call")).abs() < 1e-9);

        let parsed = Json::parse(&tr.to_chrome_json()).expect("valid JSON");
        let Some(Json::Arr(events)) = parsed.get("traceEvents") else { panic!("traceEvents array") };
        assert_eq!(events.len(), 3);
        for (event, span) in events.iter().zip(spans) {
            assert_eq!(json::field_str(event, "name").unwrap(), span.name);
            assert_eq!(json::field_str(event, "cat").unwrap(), span.workload);
            assert_eq!(json::field_f64(event, "ts").unwrap(), span.start_ns as f64 / 1e3);
            assert_eq!(json::field_f64(event, "dur").unwrap(), (span.end_ns - span.start_ns) as f64 / 1e3);
            let args = event.get("args").unwrap();
            assert_eq!(args.get("parent").and_then(json::as_f64).map(|p| p as u32), span.parent);
        }
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new();
        tr.enabled = false;
        assert_eq!(tr.span("layer.call", "report_day", || 7), 7);
        assert!(tr.spans().is_empty());
    }
}
