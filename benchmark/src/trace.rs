//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic the per-layer metrics rest on.

use std::fmt::Write as _;
use std::time::Instant;

/// One call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub window_id: u64,
}

/// Records spans on one thread; the open-span stack gives each new span its
/// parent.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, window_id: u64) -> usize {
        let now = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, window_id });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, window_id: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, window_id);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children may overlap each other and are
/// clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if clipped.1 > clipped.0 {
                children[p].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The spans as a JSON array of `{name, start_ns, end_ns, parent, window_id}`.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
             \"window_id\": {}}}",
            s.name, s.start_ns, s.end_ns, parent, s.window_id
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, window_id: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),     // overlaps b on [30, 40]
            span("b", 30, 60, Some(0)),     // union of a and b covers [10, 60]
            span("c", 35, 50, Some(2)),     // nested in b: taken from b only
            span("late", 90, 130, Some(0)), // clipped to the parent: [90, 100]
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50 - 10, 30, 30 - 15, 15, 40]);
    }

    #[test]
    fn tracer_assigns_parents_from_the_open_stack() {
        let mut t = Tracer::new();
        let root = t.open("root", 7);
        t.span("child", 7, || ());
        t.close(root);
        t.span("sibling", 8, || ());
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(to_json(spans).contains("\"parent\": 0"));
    }
}
