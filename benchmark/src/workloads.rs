//! The four workloads: their names, why each exists, their constants and
//! the deterministic streams they feed the program. Everything here is a
//! function of `(workload, seed, scale)`; the program under test receives
//! only the generated windows.

use crate::surface::{self, ChurnStream, SlidingWindower, Triple, Window};
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::JoinHandle;

pub const P: &str = include_str!("../programs/p.lp");
pub const LARGE_TRAFFIC: &str = include_str!("../programs/large_traffic.lp");

/// Windows answered before anything is measured (part of `setup_s`).
pub const WARMUP: u64 = 16;
/// Distinct windows a tumbling workload cycles through.
const RING_WINDOWS: usize = 40;
/// Slides the tenants' item ring holds before it wraps: far more inserts
/// than the partition cache keeps, so a wrapped window never hits.
const RING_SLIDES: usize = 240;
/// Windows ahead of the driver the generator thread may run.
const LOOKAHEAD: usize = 4;
/// Windows of a sliding stream the input digest covers.
const DIGEST_WINDOWS: usize = 64;

const TUMBLING_SIZE: usize = 10_000;
const CHURN_SIZE: usize = 8_000;
const CHURN_SLIDE: usize = 1_000;
const CHURN_RETRACT_FRACTION: f64 = 0.25;
const TENANT_SIZE: usize = 4_000;
const TENANT_SLIDE: usize = 500;
/// Tenants 0..3 run P verbatim, 3..6 a tag-perturbed copy each: four
/// serving entries (`--tenants 6 --dup-ratio 0.5`).
const TENANTS: usize = 6;
const TENANTS_VERBATIM: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    TumblingSingle,
    TumblingDep,
    SlidingChurn,
    TenantsSliding,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// Names are final; the `why` of each is in `BENCHMARK.json` and README.md.
pub const WORKLOADS: [Workload; 4] = [
    // The paper's baseline R: rdf, scratch grounder and solver do all the
    // work, so a gain claimed in any other layer must show no change here.
    Workload { name: "tumbling_single", kind: Kind::TumblingSingle },
    // The paper's headline PR_Dep through the engine; tumbling windows share
    // nothing, so cache and delta are bypassed.
    Workload { name: "tumbling_dep", kind: Kind::TumblingDep },
    // The same grounder used differently: retractions through the delta
    // walker, cache hit share ~0, no CDCL solving.
    Workload { name: "sliding_churn", kind: Kind::SlidingChurn },
    // Registry, multi-tenant serving and the partition cache (hit share
    // ~0.5, dirty partitions re-ground from scratch) do most of the work.
    Workload { name: "tenants_sliding", kind: Kind::TenantsSliding },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A workload's frozen inputs for one seed.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    /// Items per window.
    pub size: usize,
    /// Fresh items per window (`size` for tumbling windows).
    pub slide: usize,
    data: Data,
}

enum Data {
    /// Tumbling: distinct windows, cycled.
    Ring(Vec<Vec<Triple>>),
    /// `ChurnStream` over the bursty generator: rebuilt per source from the
    /// community groups.
    Churn { groups: Vec<Vec<String>> },
    /// Tenants: the stream as items, cycled through a `SlidingWindower`.
    Items(Vec<Triple>),
}

impl Inputs {
    /// Generates the inputs. `scale` divides every window size (1 for a
    /// real run, 50 for the smoke run).
    pub fn new(kind: Kind, seed: u64, scale: usize) -> Inputs {
        let scaled = |n: usize| (n / scale).max(8);
        match kind {
            Kind::TumblingSingle => {
                let size = scaled(TUMBLING_SIZE);
                let mut gen = surface::correlated_sparse(seed);
                let ring = (0..RING_WINDOWS).map(|_| surface::generate(&mut *gen, size)).collect();
                Inputs { kind, seed, size, slide: size, data: Data::Ring(ring) }
            }
            Kind::TumblingDep => {
                let size = scaled(TUMBLING_SIZE);
                let mut gen = surface::bursty(traffic_groups(), 1, value_bound(size), seed);
                let ring = (0..RING_WINDOWS).map(|_| surface::generate(&mut *gen, size)).collect();
                Inputs { kind, seed, size, slide: size, data: Data::Ring(ring) }
            }
            Kind::SlidingChurn => Inputs {
                kind,
                seed,
                size: scaled(CHURN_SIZE),
                slide: scaled(CHURN_SLIDE),
                data: Data::Churn { groups: traffic_groups() },
            },
            Kind::TenantsSliding => {
                let (size, slide) = (scaled(TENANT_SIZE), scaled(TENANT_SLIDE));
                let items = community_bursts(seed, size, slide);
                Inputs { kind, seed, size, slide, data: Data::Items(items) }
            }
        }
    }

    /// The program every workload but the tenants' runs, and the tenants'
    /// base program.
    pub fn program(&self) -> &'static str {
        match self.kind {
            Kind::TumblingSingle | Kind::TenantsSliding => P,
            Kind::TumblingDep | Kind::SlidingChurn => LARGE_TRAFFIC,
        }
    }

    /// `(tenant id, program text)` in admission order.
    pub fn tenants(&self) -> Vec<(String, String)> {
        (0..TENANTS)
            .map(|i| {
                let text = if i < TENANTS_VERBATIM {
                    P.to_string()
                } else {
                    format!("{P}\ntenant_tag({i}).\n")
                };
                (format!("t{i}"), text)
            })
            .collect()
    }

    /// The distinct programs served, each with the views (consumers) it
    /// answers: one unnamed view for a single program, the tenant ids per
    /// serving entry otherwise.
    pub fn programs(&self) -> Vec<(String, Vec<String>)> {
        if self.kind != Kind::TenantsSliding {
            return vec![(self.program().to_string(), vec![String::new()])];
        }
        let mut by_text: Vec<(String, Vec<String>)> = Vec::new();
        for (tenant, text) in self.tenants() {
            match by_text.iter_mut().find(|(t, _)| *t == text) {
                Some((_, views)) => views.push(tenant),
                None => by_text.push((text, vec![tenant])),
            }
        }
        by_text
    }

    /// Windows the driver keeps outstanding.
    pub fn in_flight(&self) -> usize {
        if self.kind == Kind::TumblingDep {
            2
        } else {
            1
        }
    }

    /// A fresh source positioned at window 0. With `lookahead` a sliding
    /// churn stream is produced by a generator thread, so building window
    /// `k+1` overlaps reasoning over window `k`.
    pub fn source(&self, lookahead: bool) -> Source<'_> {
        match &self.data {
            Data::Ring(ring) => Source::Ring { ring, next: 0 },
            Data::Churn { groups } => {
                let inner =
                    surface::bursty(groups.clone(), self.slide, value_bound(self.size), self.seed);
                let stream = surface::churn_stream(
                    inner,
                    self.size,
                    self.slide,
                    CHURN_RETRACT_FRACTION,
                    self.seed,
                );
                if lookahead {
                    Source::Ahead(Lookahead::spawn(stream))
                } else {
                    Source::Churn(stream)
                }
            }
            Data::Items(items) => Source::Sliding {
                items,
                pos: 0,
                windower: surface::sliding_windower(self.size, self.slide),
            },
        }
    }

    /// Window `index`'s slot when window contents repeat (tumbling rings):
    /// answers for one slot hold for every window in it.
    pub fn ring_slot(&self, index: u64) -> Option<usize> {
        match &self.data {
            Data::Ring(ring) => Some(index as usize % ring.len()),
            _ => None,
        }
    }

    /// FNV-1a digest of the generated stream — pinned in `inputs.lock` for
    /// seed 2017, because the generators live in product code.
    pub fn digest(&self) -> u64 {
        let fold = |h, items: &[Triple]| items.iter().fold(h, surface::digest_triple);
        match &self.data {
            Data::Ring(ring) => ring.iter().fold(surface::FNV_OFFSET, |h, w| fold(h, w)),
            Data::Items(items) => fold(surface::FNV_OFFSET, items),
            Data::Churn { .. } => {
                let mut source = self.source(false);
                (0..DIGEST_WINDOWS).fold(surface::FNV_OFFSET, |h, _| {
                    let w = source.next_window();
                    let h = fold(h, &w.items);
                    w.delta.map_or(h, |d| fold(fold(h, &d.added), &d.retracted))
                })
            }
        }
    }
}

/// Integer bound of the bursty generator's subjects and objects: a tenth of
/// the window keeps join selectivity the same at every scale.
fn value_bound(size: usize) -> i64 {
    (size / 10).max(10) as i64
}

/// LARGE_TRAFFIC's input predicates by community.
fn traffic_groups() -> Vec<Vec<String>> {
    surface::analyze(&surface::parse(LARGE_TRAFFIC)).groups
}

/// The `CorrelatedSparse` stream re-ordered into alternating community
/// bursts of `slide` items, so each slide of the tenants' window dirties
/// exactly one of P's two partitions.
fn community_bursts(seed: u64, size: usize, slide: usize) -> Vec<Triple> {
    let groups = surface::analyze(&surface::parse(P)).groups;
    assert_eq!(groups.len(), 2, "P splits into two communities");
    let mut gen = surface::correlated_sparse(seed);
    let mut queues: [VecDeque<Triple>; 2] = [VecDeque::new(), VecDeque::new()];
    let mut out = Vec::with_capacity(RING_SLIDES * slide);
    for burst in 0..RING_SLIDES {
        let community = burst % 2;
        while queues[community].len() < slide {
            for t in surface::generate(&mut *gen, size) {
                let name = surface::predicate_name(&t);
                let c = usize::from(!groups[0].iter().any(|p| p == name));
                queues[c].push_back(t);
            }
        }
        out.extend(queues[community].drain(..slide));
    }
    out
}

/// A deterministic stream of windows.
pub enum Source<'a> {
    Ring { ring: &'a [Vec<Triple>], next: u64 },
    Churn(ChurnStream),
    Ahead(Lookahead),
    Sliding { items: &'a [Triple], pos: usize, windower: SlidingWindower },
}

impl Source<'_> {
    pub fn next_window(&mut self) -> Window {
        match self {
            Source::Ring { ring, next } => {
                let w = surface::window(*next, ring[*next as usize % ring.len()].clone());
                *next += 1;
                w
            }
            Source::Churn(stream) => surface::next_churn_window(stream),
            Source::Ahead(ahead) => ahead.next_window(),
            Source::Sliding { items, pos, windower } => loop {
                let item = items[*pos % items.len()].clone();
                *pos += 1;
                if let Some(w) = surface::push(windower, item) {
                    return w;
                }
            },
        }
    }
}

impl Source<'_> {
    /// Window `index`, which must not lie behind the source. Every source
    /// numbers its windows from 0; a ring jumps, a stream is walked.
    pub fn window_at(&mut self, index: u64) -> Window {
        if let Source::Ring { next, .. } = self {
            *next = index;
        }
        loop {
            let w = self.next_window();
            if w.id == index {
                return w;
            }
            assert!(w.id < index, "window {index} lies behind the source");
        }
    }
}

/// The generator thread of a sliding churn stream: at most [`LOOKAHEAD`]
/// windows ahead of the consumer.
pub struct Lookahead {
    rx: Option<Receiver<Window>>,
    thread: Option<JoinHandle<()>>,
}

impl Lookahead {
    fn spawn(mut stream: ChurnStream) -> Lookahead {
        // One window waits in the blocked `send`, the rest in the channel.
        let (tx, rx) = sync_channel(LOOKAHEAD - 1);
        let thread = std::thread::Builder::new()
            .name("bench-generator".into())
            .spawn(move || while tx.send(surface::next_churn_window(&mut stream)).is_ok() {})
            .expect("generator thread spawns");
        Lookahead { rx: Some(rx), thread: Some(thread) }
    }

    fn next_window(&mut self) -> Window {
        self.rx.as_ref().expect("live until dropped").recv().expect("generator thread is alive")
    }
}

impl Drop for Lookahead {
    fn drop(&mut self) {
        // Hanging up fails the generator's next `send`, which ends it.
        self.rx = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        for w in &WORKLOADS {
            let a = Inputs::new(w.kind, 7, 50).digest();
            assert_eq!(a, Inputs::new(w.kind, 7, 50).digest(), "{}", w.name);
            assert_ne!(a, Inputs::new(w.kind, 8, 50).digest(), "{}", w.name);
        }
    }

    #[test]
    fn lookahead_yields_the_same_windows_as_the_direct_stream() {
        let inputs = Inputs::new(Kind::SlidingChurn, 7, 50);
        let (mut direct, mut ahead) = (inputs.source(false), inputs.source(true));
        for _ in 0..10 {
            let (a, b) = (direct.next_window(), ahead.next_window());
            assert_eq!((a.id, &a.items, &a.delta), (b.id, &b.items, &b.delta));
        }
    }

    #[test]
    fn each_tenant_slide_touches_one_community() {
        let inputs = Inputs::new(Kind::TenantsSliding, 7, 50);
        let groups = surface::analyze(&surface::parse(P)).groups;
        let mut source = inputs.source(false);
        source.next_window();
        for _ in 0..6 {
            let delta = source.next_window().delta.expect("sliding windows carry deltas");
            assert_eq!(delta.added.len(), inputs.slide);
            let in_first = |t: &Triple| groups[0].iter().any(|p| p == surface::predicate_name(t));
            let first = in_first(&delta.added[0]);
            assert!(delta.added.iter().chain(&delta.retracted).all(|t| in_first(t) == first));
        }
    }
}
