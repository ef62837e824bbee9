//! Spans around the calls into each layer.
//!
//! The replay is generic over a [`Sink`]: [`Tracer`] keeps every span
//! in memory, [`NoTrace`] compiles the same call sites to nothing, and
//! the difference between the two replays is the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval: a stage of one chunk, or the chunk itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer metric stem, e.g. `core.registry.ingest`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock. Zero while the span is open.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Chunk id: spans of one chunk share it.
    pub chunk: u32,
    /// Items the stage handled (updates, alerts or offers).
    pub items: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where the replay reports its spans.
pub trait Sink {
    /// Opens a span and returns its handle.
    fn open(&mut self, name: &'static str, parent: Option<u32>, chunk: u32) -> u32;
    /// Closes a span, recording how many items it handled.
    fn close(&mut self, span: u32, items: u64);
}

/// Keeps every span in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Sink for Tracer {
    fn open(&mut self, name: &'static str, parent: Option<u32>, chunk: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, chunk, items: 0 });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32, items: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[span as usize];
        span.end_ns = end_ns;
        span.items = items;
    }
}

/// The disabled tracer: every call is empty and inlines away.
#[derive(Debug)]
pub struct NoTrace;

impl Sink for NoTrace {
    #[inline(always)]
    fn open(&mut self, _name: &'static str, _parent: Option<u32>, _chunk: u32) -> u32 {
        0
    }

    #[inline(always)]
    fn close(&mut self, _span: u32, _items: u64) {}
}

/// Self time per span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration());
        }
    }
    own
}

/// Self time and item count summed per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    pub self_ns: u64,
    pub items: u64,
}

impl LayerTotal {
    /// Self time per item; zero for a layer that handled nothing.
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.items as f64
        }
    }
}

pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let own = self_times(spans);
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let t = totals.entry(span.name).or_default();
        t.self_ns += self_ns;
        t.items += span.items;
    }
    totals
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"chunk\":{},\"items\":{}}}",
            s.name, s.start_ns, s.end_ns, s.chunk, s.items
        ));
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, items: u64) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, chunk: 0, items }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("chunk", 0, 100, None, 4),
            span("a", 10, 40, Some(0), 4),
            span("b", 40, 90, Some(0), 2),
            span("b.inner", 50, 60, Some(2), 1),
        ];
        assert_eq!(self_times(&spans), [20, 30, 40, 10]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_group_by_name_across_chunks() {
        let spans = vec![
            span("chunk", 0, 50, None, 8),
            span("a", 0, 30, Some(0), 8),
            span("chunk", 50, 100, None, 8),
            span("a", 60, 100, Some(2), 8),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(totals["a"], LayerTotal { self_ns: 70, items: 16 });
        assert_eq!(totals["chunk"], LayerTotal { self_ns: 30, items: 16 });
        assert!((totals["a"].ns_per_item() - 4.375).abs() < 1e-12);
        assert_eq!(LayerTotal::default().ns_per_item(), 0.0);
    }

    #[test]
    fn tracer_records_nesting_and_no_trace_records_nothing() {
        let mut t = Tracer::new();
        let chunk = t.open("chunk", None, 3);
        let stage = t.open("a", Some(chunk), 3);
        t.close(stage, 5);
        t.close(chunk, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].chunk, spans[1].items), (Some(0), 3, 5));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(to_json(spans).contains("\"parent\":0"));

        let mut off = NoTrace;
        let id = off.open("chunk", None, 0);
        off.close(id, 1);
    }
}
