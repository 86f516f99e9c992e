//! Synthetic workload generators for the paper's evaluation (§IV).
//!
//! Two modes are provided, per the substitution note in DESIGN.md:
//!
//! * [`FaithfulGenerator`] implements the paper's literal description: "we
//!   build the synthetic data by randomly generating triples where each p
//!   belongs to inpre(P); for s or o, we randomly generate their values as
//!   numbers bound by n, where n is the size of the input window". Under
//!   this scheme rule r4 (`car_in_smoke(C, high)`) can never fire because
//!   objects are always numbers.
//! * [`CorrelatedGenerator`] keeps the same volume and predicate mix but
//!   emits well-typed objects (smoke levels, zero speeds, locations), so all
//!   of Listing 1 exercises and the accuracy plots are non-degenerate.

use crate::rng::Pcg32;
use crate::window::{Window, WindowDelta};
use sr_rdf::{Node, Triple};
use std::sync::Arc;

/// The six input predicates of the paper's program P / P'.
pub const PAPER_PREDICATES: [&str; 6] =
    ["average_speed", "car_number", "traffic_light", "car_in_smoke", "car_speed", "car_location"];

/// A source of synthetic windows.
pub trait WorkloadGenerator {
    /// Generates the next window of `size` triples.
    fn window(&mut self, size: usize) -> Vec<Triple>;
}

/// Which generator to use (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeneratorKind {
    /// The paper's literal description (numbers everywhere).
    Faithful,
    /// Well-typed correlated traffic data with ~50 readings per entity:
    /// joins are redundant, so random partitioning degrades gently.
    Correlated,
    /// Well-typed data with roughly one reading per entity and predicate —
    /// the join fragility of the paper's uniform-random data, producing the
    /// sharp accuracy decline of Figures 8/10.
    CorrelatedSparse,
}

/// Builds a generator of the given kind over the paper's input predicates.
pub fn paper_generator(kind: GeneratorKind, seed: u64) -> Box<dyn WorkloadGenerator + Send> {
    match kind {
        GeneratorKind::Faithful => Box::new(FaithfulGenerator::new(
            PAPER_PREDICATES.iter().map(|s| s.to_string()).collect(),
            seed,
        )),
        GeneratorKind::Correlated => Box::new(CorrelatedGenerator::new(seed)),
        GeneratorKind::CorrelatedSparse => {
            Box::new(CorrelatedGenerator::with_config(CorrelatedConfig::sparse(), seed))
        }
    }
}

/// The paper's literal generator: `p` uniform over `inpre(P)`, `s`/`o`
/// uniform integers in `[0, n)` with `n` the window size.
#[derive(Debug)]
pub struct FaithfulGenerator {
    predicates: Vec<Arc<str>>,
    rng: Pcg32,
}

impl FaithfulGenerator {
    /// A generator over the given input predicates.
    pub fn new(predicates: Vec<String>, seed: u64) -> Self {
        FaithfulGenerator {
            predicates: predicates.into_iter().map(Arc::from).collect(),
            rng: Pcg32::seed(seed),
        }
    }
}

impl WorkloadGenerator for FaithfulGenerator {
    fn window(&mut self, size: usize) -> Vec<Triple> {
        let n = size.max(1) as i64;
        (0..size)
            .map(|_| {
                let p = self.rng.pick(&self.predicates).clone();
                let s = self.rng.range(0, n);
                let o = self.rng.range(0, n);
                Triple::new(Node::Int(s), Node::Iri(p), Node::Int(o))
            })
            .collect()
    }
}

/// Tunables of the correlated city-traffic generator.
#[derive(Clone, Debug)]
pub struct CorrelatedConfig {
    /// Number of road segments; defaults to `window / entity_divisor` at
    /// generation time when set to 0.
    pub locations: usize,
    /// Number of cars; defaults like `locations`.
    pub cars: usize,
    /// Entities per window item when `locations`/`cars` are 0: each entity
    /// receives about `entity_divisor / 6` readings per predicate.
    pub entity_divisor: usize,
    /// Probability that an `average_speed` reading is below 20 (r1 fires).
    pub slow_speed_rate: f64,
    /// Probability that a `car_number` reading exceeds 40 (r2 fires).
    pub many_cars_rate: f64,
    /// Probability that a location reports a traffic light.
    pub traffic_light_rate: f64,
    /// Probability that a smoke reading is `high` (r4 precondition).
    pub high_smoke_rate: f64,
    /// Probability that a car reports speed 0 (r4 precondition).
    pub zero_speed_rate: f64,
}

impl Default for CorrelatedConfig {
    fn default() -> Self {
        CorrelatedConfig {
            locations: 0,
            cars: 0,
            entity_divisor: 50,
            slow_speed_rate: 0.25,
            many_cars_rate: 0.25,
            traffic_light_rate: 0.3,
            high_smoke_rate: 0.2,
            zero_speed_rate: 0.3,
        }
    }
}

impl CorrelatedConfig {
    /// Sparse variant: about one reading per entity and predicate, so every
    /// derived event hangs on a single co-location of its inputs.
    pub fn sparse() -> Self {
        CorrelatedConfig { entity_divisor: 6, ..Default::default() }
    }
}

/// Correlated traffic workload: same predicate mix as the paper, well-typed
/// objects, entities shared across predicates so joins actually fire.
#[derive(Debug)]
pub struct CorrelatedGenerator {
    config: CorrelatedConfig,
    rng: Pcg32,
    location_cache: Vec<Arc<str>>,
    car_cache: Vec<Arc<str>>,
    preds: [Arc<str>; 6],
    high: Arc<str>,
    low: Arc<str>,
}

impl CorrelatedGenerator {
    /// A generator with default tunables.
    pub fn new(seed: u64) -> Self {
        Self::with_config(CorrelatedConfig::default(), seed)
    }

    /// A generator with explicit tunables.
    pub fn with_config(config: CorrelatedConfig, seed: u64) -> Self {
        CorrelatedGenerator {
            config,
            rng: Pcg32::seed(seed),
            location_cache: Vec::new(),
            car_cache: Vec::new(),
            preds: PAPER_PREDICATES.map(Arc::from),
            high: Arc::from("high"),
            low: Arc::from("low"),
        }
    }

    fn ensure_entities(&mut self, window: usize) {
        let divisor = self.config.entity_divisor.max(1);
        let locations = if self.config.locations == 0 {
            (window / divisor).max(10)
        } else {
            self.config.locations
        };
        let cars =
            if self.config.cars == 0 { (window / divisor).max(10) } else { self.config.cars };
        while self.location_cache.len() < locations {
            self.location_cache.push(Arc::from(format!("loc{}", self.location_cache.len())));
        }
        self.location_cache.truncate(locations);
        while self.car_cache.len() < cars {
            self.car_cache.push(Arc::from(format!("car{}", self.car_cache.len())));
        }
        self.car_cache.truncate(cars);
    }
}

impl WorkloadGenerator for CorrelatedGenerator {
    fn window(&mut self, size: usize) -> Vec<Triple> {
        self.ensure_entities(size);
        let cfg = self.config.clone();
        let mut out = Vec::with_capacity(size);
        for _ in 0..size {
            let which = self.rng.below(6) as usize;
            let pred = Node::Iri(self.preds[which].clone());
            let triple = match which {
                // average_speed(Loc, V)
                0 => {
                    let loc = Node::Iri(self.rng.pick(&self.location_cache).clone());
                    let v = if self.rng.chance(cfg.slow_speed_rate) {
                        self.rng.range(0, 20)
                    } else {
                        self.rng.range(20, 80)
                    };
                    Triple::new(loc, pred, Node::Int(v))
                }
                // car_number(Loc, V)
                1 => {
                    let loc = Node::Iri(self.rng.pick(&self.location_cache).clone());
                    let v = if self.rng.chance(cfg.many_cars_rate) {
                        self.rng.range(41, 90)
                    } else {
                        self.rng.range(0, 41)
                    };
                    Triple::new(loc, pred, Node::Int(v))
                }
                // traffic_light(Loc) — unary; object carries a dummy flag.
                2 => {
                    // Only a subset of locations have lights at all; sample
                    // among the first portion of the cache for stability.
                    let lights = ((self.location_cache.len() as f64) * cfg.traffic_light_rate)
                        .ceil() as usize;
                    let lights = lights.clamp(1, self.location_cache.len());
                    let loc = Node::Iri(
                        self.location_cache[self.rng.below(lights as u64) as usize].clone(),
                    );
                    Triple::new(loc, pred, Node::Int(1))
                }
                // car_in_smoke(Car, high|low)
                3 => {
                    let car = Node::Iri(self.rng.pick(&self.car_cache).clone());
                    let level = if self.rng.chance(cfg.high_smoke_rate) {
                        Node::Literal(self.high.clone())
                    } else {
                        Node::Literal(self.low.clone())
                    };
                    Triple::new(car, pred, level)
                }
                // car_speed(Car, V)
                4 => {
                    let car = Node::Iri(self.rng.pick(&self.car_cache).clone());
                    let v = if self.rng.chance(cfg.zero_speed_rate) {
                        0
                    } else {
                        self.rng.range(1, 120)
                    };
                    Triple::new(car, pred, Node::Int(v))
                }
                // car_location(Car, Loc)
                _ => {
                    let car = Node::Iri(self.rng.pick(&self.car_cache).clone());
                    let loc = Node::Iri(self.rng.pick(&self.location_cache).clone());
                    Triple::new(car, pred, loc)
                }
            };
            out.push(triple);
        }
        out
    }
}

/// Bursty arrival pattern: items arrive in runs of `burst` consecutive
/// items drawn from one predicate *group*, cycling through the groups
/// round-robin. Models sensor networks that upload readings in batches
/// (one subsystem at a time) rather than interleaving every source —
/// the regime where sliding-window deltas stay concentrated in few input
/// dependency partitions, which the incremental reasoning subsystem
/// exploits. Values are faithful-style integers bound by `value_bound`.
#[derive(Debug)]
pub struct BurstyGenerator {
    groups: Vec<Vec<Arc<str>>>,
    burst: usize,
    value_bound: i64,
    rng: Pcg32,
    emitted: usize,
}

impl BurstyGenerator {
    /// A generator cycling bursts of `burst` items through `groups` of
    /// predicate names. `groups` must be non-empty and free of empty groups.
    pub fn new(groups: Vec<Vec<String>>, burst: usize, value_bound: i64, seed: u64) -> Self {
        assert!(!groups.is_empty(), "bursty generator needs at least one group");
        assert!(groups.iter().all(|g| !g.is_empty()), "groups must be non-empty");
        assert!(burst > 0, "burst length must be positive");
        assert!(value_bound > 0, "value bound must be positive");
        BurstyGenerator {
            groups: groups.into_iter().map(|g| g.into_iter().map(Arc::from).collect()).collect(),
            burst,
            value_bound,
            rng: Pcg32::seed(seed),
            emitted: 0,
        }
    }

    fn next_item(&mut self) -> Triple {
        let group = &self.groups[(self.emitted / self.burst) % self.groups.len()];
        self.emitted += 1;
        let p = self.rng.pick(group).clone();
        let s = self.rng.range(0, self.value_bound);
        let o = self.rng.range(0, self.value_bound);
        Triple::new(Node::Int(s), Node::Iri(p), Node::Int(o))
    }
}

impl WorkloadGenerator for BurstyGenerator {
    fn window(&mut self, size: usize) -> Vec<Triple> {
        (0..size).map(|_| self.next_item()).collect()
    }
}

/// Retraction-heavy sliding stream: emits [`Window`]s directly (with exact
/// [`WindowDelta`] metadata) where each slide retracts `slide` items of
/// which a fixed fraction — [`ChurnStream::new`]'s `retract_fraction` — is
/// drawn uniformly from the *live window interior* instead of the expiring
/// FIFO tail. Interior retractions are what assert/retract reasoners
/// (oclingo-style) call true retractions: they kill facts whose join
/// partners are still live, so every derivation chain they support must be
/// torn down (DRed over-delete) rather than aged out. `retract_fraction
/// == 0` degenerates to the [`SlidingWindower`](crate::SlidingWindower)
/// FIFO regime; `1.0` retracts entirely at random. Window size stays
/// constant: every slide adds `slide` fresh items from the inner generator.
pub struct ChurnStream {
    inner: Box<dyn WorkloadGenerator + Send>,
    size: usize,
    slide: usize,
    retract_fraction: f64,
    rng: Pcg32,
    next_id: u64,
    window: Vec<Triple>,
}

impl std::fmt::Debug for ChurnStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChurnStream")
            .field("size", &self.size)
            .field("slide", &self.slide)
            .field("retract_fraction", &self.retract_fraction)
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

impl ChurnStream {
    /// A churn stream over `inner`, windows of `size` items sliding by
    /// `slide`, with `retract_fraction` of each slide's retractions drawn
    /// uniformly from the live window. `retract_fraction` must be in
    /// `[0, 1]`; `slide` must not exceed `size`.
    pub fn new(
        inner: Box<dyn WorkloadGenerator + Send>,
        size: usize,
        slide: usize,
        retract_fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(size > 0, "window size must be positive");
        assert!(slide > 0 && slide <= size, "slide must be in 1..=size");
        assert!((0.0..=1.0).contains(&retract_fraction), "fraction must be in [0, 1]");
        ChurnStream {
            inner,
            size,
            slide,
            retract_fraction,
            rng: Pcg32::seed(seed ^ 0xc4u64.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            next_id: 0,
            window: Vec::new(),
        }
    }

    /// Produces the next window. The first call fills a fresh window (no
    /// delta base); every later call retracts `slide` items (interior-random
    /// per `retract_fraction`, FIFO for the remainder), adds `slide` fresh
    /// items and attaches the exact [`WindowDelta`] — the multiset invariant
    /// `multiset(current) = multiset(base) - retracted + added` holds by
    /// construction.
    pub fn next_window(&mut self) -> Window {
        if self.next_id == 0 {
            self.window = self.inner.window(self.size);
            let w = Window::new(0, self.window.clone());
            self.next_id = 1;
            return w;
        }
        let n_random = ((self.slide as f64 * self.retract_fraction).round() as usize)
            .min(self.slide)
            .min(self.window.len());
        let mut retracted = Vec::with_capacity(self.slide);
        for _ in 0..n_random {
            let i = self.rng.below(self.window.len() as u64) as usize;
            retracted.push(self.window.remove(i));
        }
        let fifo = (self.slide - n_random).min(self.window.len());
        retracted.extend(self.window.drain(..fifo));
        let added = self.inner.window(self.slide);
        self.window.extend(added.iter().cloned());
        let id = self.next_id;
        self.next_id += 1;
        Window {
            id,
            items: self.window.clone(),
            delta: Some(WindowDelta { base_id: id - 1, added, retracted }),
        }
    }

    /// Collects the next `n` windows.
    pub fn windows(&mut self, n: usize) -> Vec<Window> {
        (0..n).map(|_| self.next_window()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn faithful_matches_paper_description() {
        let mut g =
            FaithfulGenerator::new(PAPER_PREDICATES.iter().map(|s| s.to_string()).collect(), 1);
        let n = 1000;
        let w = g.window(n);
        assert_eq!(w.len(), n);
        for t in &w {
            assert!(PAPER_PREDICATES.contains(&t.predicate_name()));
            let s = t.s.as_int().expect("subject is a number");
            let o = t.o.as_int().expect("object is a number");
            assert!((0..n as i64).contains(&s));
            assert!((0..n as i64).contains(&o));
        }
    }

    #[test]
    fn faithful_is_deterministic_per_seed() {
        let mut a = FaithfulGenerator::new(vec!["p".into()], 5);
        let mut b = FaithfulGenerator::new(vec!["p".into()], 5);
        assert_eq!(a.window(100), b.window(100));
    }

    #[test]
    fn correlated_uses_all_predicates_with_roughly_uniform_mix() {
        let mut g = CorrelatedGenerator::new(3);
        let w = g.window(6000);
        let mut counts = std::collections::HashMap::new();
        for t in &w {
            *counts.entry(t.predicate_name().to_string()).or_insert(0usize) += 1;
        }
        for p in PAPER_PREDICATES {
            let c = counts[p];
            assert!((700..1300).contains(&c), "predicate {p} count {c} not near 1000");
        }
    }

    #[test]
    fn correlated_objects_are_well_typed() {
        let mut g = CorrelatedGenerator::new(4);
        let w = g.window(3000);
        let mut smoke_levels = HashSet::new();
        let mut zero_speed_seen = false;
        for t in &w {
            match t.predicate_name() {
                "car_in_smoke" => {
                    smoke_levels.insert(t.o.local_name().to_string());
                }
                "car_speed" => zero_speed_seen |= t.o.as_int() == Some(0),
                "average_speed" | "car_number" => {
                    assert!(t.o.as_int().is_some());
                }
                _ => {}
            }
        }
        assert!(smoke_levels.contains("high"), "some smoke must be high");
        assert!(zero_speed_seen, "some cars must be stopped");
    }

    #[test]
    fn correlated_shares_entities_across_predicates() {
        let mut g = CorrelatedGenerator::new(5);
        let w = g.window(2000);
        let speed_locs: HashSet<_> = w
            .iter()
            .filter(|t| t.predicate_name() == "average_speed")
            .map(|t| t.s.local_name().to_string())
            .collect();
        let count_locs: HashSet<_> = w
            .iter()
            .filter(|t| t.predicate_name() == "car_number")
            .map(|t| t.s.local_name().to_string())
            .collect();
        assert!(speed_locs.intersection(&count_locs).count() > 0, "joins require shared locations");
    }

    #[test]
    fn bursty_cycles_groups_in_burst_sized_runs() {
        let groups = vec![vec!["a".to_string()], vec!["b".to_string()], vec!["c".to_string()]];
        let mut g = BurstyGenerator::new(groups, 4, 100, 7);
        let w = g.window(24);
        let preds: Vec<&str> = w.iter().map(|t| t.predicate_name()).collect();
        for (i, p) in preds.iter().enumerate() {
            let expected = ["a", "b", "c"][(i / 4) % 3];
            assert_eq!(*p, expected, "item {i} outside its burst");
        }
        // Burst position persists across window() calls.
        let next = g.window(4);
        assert!(next.iter().all(|t| t.predicate_name() == "a"), "cycle continues");
    }

    #[test]
    fn bursty_is_deterministic_per_seed() {
        let groups = vec![vec!["p".to_string(), "q".to_string()]];
        let mut a = BurstyGenerator::new(groups.clone(), 3, 50, 9);
        let mut b = BurstyGenerator::new(groups, 3, 50, 9);
        assert_eq!(a.window(60), b.window(60));
    }

    #[test]
    fn churn_stream_keeps_window_size_and_delta_invariant() {
        for fraction in [0.0, 0.5, 1.0] {
            let inner = paper_generator(GeneratorKind::CorrelatedSparse, 11);
            let mut churn = ChurnStream::new(inner, 40, 10, fraction, 7);
            let mut prev: Option<Window> = None;
            for _ in 0..6 {
                let w = churn.next_window();
                assert_eq!(w.len(), 40, "window size stays constant");
                if let Some(base) = &prev {
                    let d = w.delta.as_ref().expect("every later window carries a delta");
                    assert_eq!(d.base_id, base.id);
                    assert_eq!(d.added.len(), 10);
                    assert_eq!(d.retracted.len(), 10);
                    // multiset(current) = multiset(base) - retracted + added
                    let mut reconstructed = base.items.clone();
                    for r in &d.retracted {
                        let pos = reconstructed
                            .iter()
                            .position(|x| x == r)
                            .expect("retracted item was in the base window");
                        reconstructed.remove(pos);
                    }
                    reconstructed.extend(d.added.iter().cloned());
                    let sort = |mut v: Vec<Triple>| {
                        v.sort_by_key(|x| format!("{x}"));
                        v
                    };
                    assert_eq!(
                        sort(reconstructed),
                        sort(w.items.clone()),
                        "delta invariant broken at fraction {fraction}"
                    );
                } else {
                    assert!(w.delta.is_none(), "first window has no base");
                }
                prev = Some(w);
            }
        }
    }

    #[test]
    fn churn_stream_zero_fraction_expires_fifo() {
        let inner = paper_generator(GeneratorKind::CorrelatedSparse, 3);
        let mut churn = ChurnStream::new(inner, 20, 5, 0.0, 9);
        let w0 = churn.next_window();
        let w1 = churn.next_window();
        let d = w1.delta.unwrap();
        assert_eq!(d.retracted, w0.items[..5].to_vec(), "fraction 0 retracts the oldest items");
    }

    #[test]
    fn churn_stream_full_fraction_retracts_interior_items() {
        // With fraction 1.0 and enough rounds, some retraction must hit a
        // non-oldest item (probability of always drawing the head is ~0).
        let inner = paper_generator(GeneratorKind::CorrelatedSparse, 5);
        let mut churn = ChurnStream::new(inner, 30, 6, 1.0, 21);
        let mut interior_hit = false;
        let mut prev = churn.next_window();
        for _ in 0..8 {
            let w = churn.next_window();
            let d = w.delta.clone().unwrap();
            let oldest: Vec<&Triple> = prev.items[..6].iter().collect();
            if d.retracted.iter().any(|r| !oldest.contains(&r)) {
                interior_hit = true;
            }
            prev = w;
        }
        assert!(interior_hit, "random retraction never left the FIFO head");
    }

    #[test]
    fn churn_stream_is_deterministic_per_seed() {
        let make = || {
            let inner = paper_generator(GeneratorKind::CorrelatedSparse, 2);
            ChurnStream::new(inner, 24, 8, 0.5, 13)
        };
        let (mut a, mut b) = (make(), make());
        for _ in 0..4 {
            let (wa, wb) = (a.next_window(), b.next_window());
            assert_eq!(wa.items, wb.items);
            assert_eq!(wa.delta, wb.delta);
        }
    }

    #[test]
    fn paper_generator_factory() {
        let mut f = paper_generator(GeneratorKind::Faithful, 1);
        let mut c = paper_generator(GeneratorKind::Correlated, 1);
        assert_eq!(f.window(10).len(), 10);
        assert_eq!(c.window(10).len(), 10);
    }
}
