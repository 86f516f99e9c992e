//! Input windows: the unit of work the reasoner processes per computation
//! (paper §I: "an input window W is a set of input data items that the
//! reasoner R processes per computation").

use sr_rdf::Triple;

/// A timestamped stream item.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamItem {
    /// The payload triple.
    pub triple: Triple,
    /// Arrival time in milliseconds since stream start.
    pub timestamp_ms: u64,
}

/// Change of a window relative to an earlier window of the same stream:
/// `multiset(current) = multiset(base) - retracted + added`. Produced by
/// [`SlidingWindower`] and `ChurnStream` for overlapping windows.
///
/// The invariant is load-bearing: a consumer that answered the window
/// `base_id` may reuse what it computed there for any part of the input the
/// delta does not touch (the incremental reasoner reuses every community no
/// added or retracted item routes to). A producer must therefore list every
/// change, and must never attach a delta whose base is not the window it
/// names.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowDelta {
    /// Id of the window this delta is relative to (the previous emission).
    pub base_id: u64,
    /// Items present in the current window but not in the base window.
    pub added: Vec<Triple>,
    /// Items present in the base window but not in the current window.
    pub retracted: Vec<Triple>,
}

impl WindowDelta {
    /// True when the window content is unchanged relative to the base.
    pub fn is_unchanged(&self) -> bool {
        self.added.is_empty() && self.retracted.is_empty()
    }

    /// Projects the delta onto `partitions` sub-streams through a per-item
    /// routing function (an item may be routed to several partitions —
    /// duplicated predicates — or to none). Valid only for *content-based*
    /// routing (the same item always takes the same routes): then each
    /// projected delta satisfies the window invariant per partition,
    /// `multiset(part_i(current)) = multiset(part_i(base)) - retracted_i +
    /// added_i`.
    ///
    /// Kept for the measured surface: the benchmark's layer replay times it.
    /// No reasoner consumes projected deltas.
    pub fn project(
        &self,
        partitions: usize,
        mut route: impl FnMut(&Triple) -> Vec<u32>,
    ) -> Vec<WindowDelta> {
        let mut out: Vec<WindowDelta> = (0..partitions)
            .map(|_| WindowDelta { base_id: self.base_id, ..Default::default() })
            .collect();
        for item in &self.added {
            for r in route(item) {
                out[r as usize].added.push(item.clone());
            }
        }
        for item in &self.retracted {
            for r in route(item) {
                out[r as usize].retracted.push(item.clone());
            }
        }
        out
    }
}

/// An input window handed to a reasoner.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Monotone window sequence number.
    pub id: u64,
    /// The data items.
    pub items: Vec<Triple>,
    /// Change relative to the previous window of the stream, when the
    /// windower can produce one (overlapping sliding windows). `None` means
    /// "unknown": consumers must treat the window as entirely new. When
    /// `Some`, it must keep the [`WindowDelta`] multiset invariant exactly:
    /// consumers reuse results computed for `base_id` on everything it does
    /// not touch.
    pub delta: Option<WindowDelta>,
}

impl Window {
    /// Builds a window with no delta metadata.
    pub fn new(id: u64, items: Vec<Triple>) -> Self {
        Window { id, items, delta: None }
    }

    /// Attaches delta metadata (builder style). The delta must satisfy the
    /// [`WindowDelta`] multiset invariant against window `delta.base_id`:
    /// consumers reuse what they computed for that window on anything the
    /// delta does not touch, so a wrong delta yields wrong answers.
    pub fn with_delta(mut self, delta: WindowDelta) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A windowing strategy over a timestamped stream. Unifies the windowers
/// ([`TupleWindower`], [`SlidingWindower`]) so sources can feed any
/// consumer — e.g. a pipelined stream engine — generically. Both are
/// count-based and ignore the timestamp.
pub trait Windower: Send {
    /// Feeds one timestamped item; returns a window when one closes.
    fn feed(&mut self, item: StreamItem) -> Option<Window>;

    /// Flushes the trailing partial window at end of stream, if any.
    fn flush(&mut self) -> Option<Window>;
}

impl Windower for TupleWindower {
    fn feed(&mut self, item: StreamItem) -> Option<Window> {
        self.push(item.triple)
    }

    fn flush(&mut self) -> Option<Window> {
        TupleWindower::flush(self)
    }
}

impl Windower for SlidingWindower {
    fn feed(&mut self, item: StreamItem) -> Option<Window> {
        self.push(item.triple)
    }

    fn flush(&mut self) -> Option<Window> {
        SlidingWindower::flush(self)
    }
}

/// Tuple-based (count-based) windower: emits a window every `size` items —
/// the windowing model used throughout the paper's evaluation.
#[derive(Debug)]
pub struct TupleWindower {
    size: usize,
    next_id: u64,
    buffer: Vec<Triple>,
}

impl TupleWindower {
    /// A windower emitting windows of `size` items. `size` must be positive.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "window size must be positive");
        TupleWindower { size, next_id: 0, buffer: Vec::with_capacity(size) }
    }

    /// Feeds one item; returns a full window when the buffer fills up.
    pub fn push(&mut self, item: Triple) -> Option<Window> {
        self.buffer.push(item);
        if self.buffer.len() >= self.size {
            let items = std::mem::replace(&mut self.buffer, Vec::with_capacity(self.size));
            let w = Window::new(self.next_id, items);
            self.next_id += 1;
            Some(w)
        } else {
            None
        }
    }

    /// Flushes a partial window (stream end).
    pub fn flush(&mut self) -> Option<Window> {
        if self.buffer.is_empty() {
            return None;
        }
        let items = std::mem::take(&mut self.buffer);
        let w = Window::new(self.next_id, items);
        self.next_id += 1;
        Some(w)
    }
}

/// Sliding tuple window: emits a window of the last `size` items every
/// `slide` arrivals. `slide == size` degenerates to [`TupleWindower`]
/// (tumbling); `slide < size` re-processes overlapping items, the classic
/// CQELS-style sliding regime.
///
/// Every emission after the first carries a [`WindowDelta`] relative to the
/// previous emission: the items that fell off the back (`retracted`) and the
/// new arrivals (`added`). Arrivals that enter and leave the buffer between
/// two emissions (possible when `slide > size`) appear in neither list — the
/// delta relates emitted windows, not raw arrivals.
#[derive(Debug)]
pub struct SlidingWindower {
    size: usize,
    slide: usize,
    next_id: u64,
    since_emit: usize,
    buffer: std::collections::VecDeque<Triple>,
    /// Id and content of the previous emission (the delta base).
    last_emit: Option<(u64, Vec<Triple>)>,
    /// Items evicted from the buffer since the previous emission.
    evicted_since_emit: usize,
}

impl SlidingWindower {
    /// A windower of `size` items sliding by `slide`. Both must be positive;
    /// `slide` may exceed `size` (sampling windows with gaps).
    pub fn new(size: usize, slide: usize) -> Self {
        assert!(size > 0, "window size must be positive");
        assert!(slide > 0, "slide must be positive");
        SlidingWindower {
            size,
            slide,
            next_id: 0,
            since_emit: 0,
            buffer: std::collections::VecDeque::with_capacity(size),
            last_emit: None,
            evicted_since_emit: 0,
        }
    }

    /// Emits the current buffer as a window, attaching the delta against the
    /// previous emission. Retained items keep their order in the buffer, so
    /// the delta is structural: the first `evicted` items of the base were
    /// retracted and everything past the surviving overlap was added.
    fn emit(&mut self) -> Window {
        let items: Vec<Triple> = self.buffer.iter().cloned().collect();
        let delta = self.last_emit.as_ref().map(|(base_id, base)| {
            let evicted = self.evicted_since_emit.min(base.len());
            let overlap = base.len() - evicted;
            WindowDelta {
                base_id: *base_id,
                added: items[overlap.min(items.len())..].to_vec(),
                retracted: base[..evicted].to_vec(),
            }
        });
        let id = self.next_id;
        self.next_id += 1;
        self.since_emit = 0;
        self.evicted_since_emit = 0;
        self.last_emit = Some((id, items.clone()));
        Window { id, items, delta }
    }

    /// Feeds one item; emits the current window content every `slide` items
    /// once at least `size` items have been seen.
    pub fn push(&mut self, item: Triple) -> Option<Window> {
        if self.buffer.len() == self.size {
            self.buffer.pop_front();
            self.evicted_since_emit += 1;
        }
        self.buffer.push_back(item);
        self.since_emit += 1;
        if self.buffer.len() == self.size && self.since_emit >= self.slide {
            Some(self.emit())
        } else {
            None
        }
    }

    /// Flushes at stream end (API parity with [`TupleWindower::flush`]):
    /// emits the current buffer content if any
    /// arrivals have not been covered by an emission, then resets the buffer
    /// and the delta base so a reused windower starts a fresh stream instead
    /// of reporting a stale overlap against a pre-flush window.
    pub fn flush(&mut self) -> Option<Window> {
        let out =
            if self.since_emit == 0 || self.buffer.is_empty() { None } else { Some(self.emit()) };
        self.buffer.clear();
        self.since_emit = 0;
        self.last_emit = None;
        self.evicted_since_emit = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_rdf::Node;

    fn t(i: i64) -> Triple {
        Triple::new(Node::Int(i), Node::iri("p"), Node::Int(i))
    }

    #[test]
    fn tuple_windows_fill_and_emit() {
        let mut w = TupleWindower::new(3);
        assert!(w.push(t(1)).is_none());
        assert!(w.push(t(2)).is_none());
        let win = w.push(t(3)).expect("third item completes the window");
        assert_eq!(win.id, 0);
        assert_eq!(win.len(), 3);
        assert!(w.push(t(4)).is_none());
        let tail = w.flush().expect("partial window flushed");
        assert_eq!(tail.id, 1);
        assert_eq!(tail.len(), 1);
        assert!(w.flush().is_none());
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_tuple_window_panics() {
        TupleWindower::new(0);
    }

    #[test]
    fn sliding_window_overlaps() {
        let mut w = SlidingWindower::new(3, 1);
        assert!(w.push(t(1)).is_none());
        assert!(w.push(t(2)).is_none());
        let w0 = w.push(t(3)).expect("first full window");
        assert_eq!(w0.items, vec![t(1), t(2), t(3)]);
        let w1 = w.push(t(4)).expect("slides by one");
        assert_eq!(w1.items, vec![t(2), t(3), t(4)]);
        assert_eq!(w1.id, 1);
    }

    #[test]
    fn sliding_equals_tumbling_when_slide_is_size() {
        let mut sliding = SlidingWindower::new(2, 2);
        let mut tumbling = TupleWindower::new(2);
        for i in 0..6 {
            let a = sliding.push(t(i));
            let b = tumbling.push(t(i));
            assert_eq!(a.map(|w| w.items), b.map(|w| w.items));
        }
    }

    #[test]
    fn sliding_flush_emits_uncovered_tail() {
        let mut w = SlidingWindower::new(3, 3);
        assert!(w.push(t(1)).is_none());
        assert!(w.push(t(2)).is_none());
        let full = w.push(t(3)).expect("full window");
        assert_eq!(full.items, vec![t(1), t(2), t(3)]);
        assert!(w.push(t(4)).is_none());
        let tail = w.flush().expect("item 4 not yet covered");
        assert_eq!(tail.items, vec![t(2), t(3), t(4)]);
        assert_eq!(tail.id, 1);
        assert!(w.flush().is_none(), "flush is idempotent");
    }

    #[test]
    fn sliding_flush_resets_delta_and_buffer_state() {
        // Regression: flush used to leave the buffer and delta base behind,
        // so a reused windower emitted windows overlapping pre-flush content
        // and deltas against a window of the previous stream.
        let mut w = SlidingWindower::new(3, 1);
        for i in 1..=3 {
            w.push(t(i));
        }
        assert!(w.flush().is_none(), "window [1,2,3] already emitted");
        // New stream on the same windower: no stale overlap, no stale delta.
        assert!(w.push(t(10)).is_none(), "buffer restarts empty");
        assert!(w.push(t(11)).is_none());
        let first = w.push(t(12)).expect("fresh stream fills a fresh window");
        assert_eq!(first.items, vec![t(10), t(11), t(12)]);
        assert!(first.delta.is_none(), "first window of the new stream has no base");
    }

    #[test]
    fn sliding_windows_carry_deltas() {
        let mut w = SlidingWindower::new(3, 1);
        w.push(t(1));
        w.push(t(2));
        let w0 = w.push(t(3)).unwrap();
        assert!(w0.delta.is_none(), "first emission has no base window");
        let w1 = w.push(t(4)).unwrap();
        let d1 = w1.delta.expect("overlapping emission carries a delta");
        assert_eq!(d1.base_id, w0.id);
        assert_eq!(d1.added, vec![t(4)]);
        assert_eq!(d1.retracted, vec![t(1)]);
        assert!(!d1.is_unchanged());
    }

    #[test]
    fn sliding_delta_with_gap_skips_unwitnessed_items() {
        // size 2, slide 3: item 4 enters and leaves the buffer between
        // emissions — it belongs to neither window, so the delta between
        // [2,3] and [5,6] retracts both old items and adds both new ones.
        let mut w = SlidingWindower::new(2, 3);
        for i in 1..=2 {
            w.push(t(i));
        }
        let w0 = w.push(t(3)).unwrap();
        assert_eq!(w0.items, vec![t(2), t(3)]);
        w.push(t(4));
        w.push(t(5));
        let w1 = w.push(t(6)).unwrap();
        assert_eq!(w1.items, vec![t(5), t(6)]);
        let d = w1.delta.unwrap();
        assert_eq!(d.base_id, w0.id);
        assert_eq!(d.retracted, vec![t(2), t(3)]);
        assert_eq!(d.added, vec![t(5), t(6)]);
    }

    #[test]
    fn sliding_delta_satisfies_multiset_invariant() {
        // multiset(current) = multiset(base) - retracted + added, across a
        // spread of size/slide shapes (overlap, tumbling, gaps).
        for (size, slide) in [(4, 1), (4, 2), (4, 4), (3, 5)] {
            let mut w = SlidingWindower::new(size, slide);
            let mut prev: Option<Window> = None;
            for i in 0..40 {
                let Some(win) = w.push(t(i)) else { continue };
                if let (Some(base), Some(d)) = (&prev, &win.delta) {
                    assert_eq!(d.base_id, base.id);
                    let mut reconstructed: Vec<Triple> = base.items.clone();
                    for r in &d.retracted {
                        let pos = reconstructed.iter().position(|x| x == r).unwrap_or_else(|| {
                            panic!("retracted item not in base (size {size} slide {slide})")
                        });
                        reconstructed.remove(pos);
                    }
                    reconstructed.extend(d.added.iter().cloned());
                    let sort = |mut v: Vec<Triple>| {
                        v.sort_by_key(|x| format!("{x}"));
                        v
                    };
                    assert_eq!(
                        sort(reconstructed),
                        sort(win.items.clone()),
                        "delta invariant broken at size {size} slide {slide} window {}",
                        win.id
                    );
                }
                prev = Some(win);
            }
        }
    }

    #[test]
    fn delta_projection_routes_and_duplicates() {
        let delta = WindowDelta { base_id: 3, added: vec![t(1), t(2)], retracted: vec![t(3)] };
        // Route by parity; even items are duplicated into both partitions.
        let parts = delta.project(2, |item| {
            let v = item.s.as_int().unwrap();
            if v % 2 == 0 {
                vec![0, 1]
            } else {
                vec![0]
            }
        });
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].base_id, 3);
        assert_eq!(parts[0].added, vec![t(1), t(2)]);
        assert_eq!(parts[1].added, vec![t(2)], "even item duplicated");
        assert_eq!(parts[0].retracted, vec![t(3)]);
        assert!(parts[1].retracted.is_empty());
    }

    #[test]
    fn windower_trait_unifies_both() {
        let item = |i: i64, ts: u64| StreamItem { triple: t(i), timestamp_ms: ts };
        let mut windowers: Vec<Box<dyn Windower>> =
            vec![Box::new(TupleWindower::new(2)), Box::new(SlidingWindower::new(2, 2))];
        for w in &mut windowers {
            assert!(w.feed(item(1, 10)).is_none());
            let emitted = w.feed(item(2, 20)).into_iter().chain(w.flush()).next().unwrap();
            assert_eq!(emitted.items, vec![t(1), t(2)]);
        }
    }

    #[test]
    fn sliding_with_gap_samples() {
        // size 2, slide 3: emit every third item, window = last 2 items.
        let mut w = SlidingWindower::new(2, 3);
        assert!(w.push(t(1)).is_none());
        assert!(w.push(t(2)).is_none());
        let w0 = w.push(t(3)).expect("third item emits");
        assert_eq!(w0.items, vec![t(2), t(3)]);
        assert!(w.push(t(4)).is_none());
        assert!(w.push(t(5)).is_none());
        let w1 = w.push(t(6)).expect("sixth item emits");
        assert_eq!(w1.items, vec![t(5), t(6)]);
    }
}
