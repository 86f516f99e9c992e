//! The traced pass — layer replay. For each sampled window the benchmark
//! (a) calls the workload's own reasoner on the driver thread and (b) drives
//! the layers by hand for the same window, one span per call. A layer's time
//! is its spans' self time; counts come from the same calls' return values.
//! (b)'s answer must equal (a)'s and the reference.

use crate::run::{self, Limits};
use crate::stats;
use crate::surface::{
    self, Analysis, AnswerSet, Compiled, DeltaGrounder, FormatProcessor, Grounder,
    IncrementalReasoner, MultiTenantEngine, ParallelReasoner, PartitionCache, Partitioner,
    SingleReasoner, Strategy, Triple, Window,
};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{Inputs, Kind, WARMUP};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Post-warm-up windows replayed, time permitting.
pub const REPLAY_WINDOWS: u64 = 48;
/// Replayed whatever the time limit, so every median has samples.
const MIN_REPLAY_WINDOWS: u64 = 8;
/// Share of `--seconds` the untraced engine pass takes; the replay gets the rest.
const UNTRACED_SHARE: f64 = 0.3;
/// Every n-th replayed window of `tumbling_dep` also goes through PR_Ran_3
/// and through PR_Dep run sequentially.
const RANDOM3_EVERY: u64 = 4;
const SEQUENTIAL_EVERY: u64 = 3;

const ROOT: &str = "replay.window";

/// Per-window counts, by metric name.
type Counts = HashMap<&'static str, f64>;

fn add(counts: &mut Counts, name: &'static str, n: usize) {
    *counts.entry(name).or_insert(0.0) += n as f64;
}

/// The workload's own reasoner, called directly on the driver thread.
enum Own {
    Single(Compiled, SingleReasoner),
    Parallel(Compiled, ParallelReasoner),
    Incremental(Compiled, IncrementalReasoner),
    Tenants(MultiTenantEngine),
}

impl Own {
    fn new(inputs: &Inputs) -> Own {
        if inputs.kind == Kind::TenantsSliding {
            let mut engine = surface::tenant_engine();
            for (tenant, text) in inputs.tenants() {
                surface::admit(&mut engine, &tenant, &text);
            }
            return Own::Tenants(engine);
        }
        let c = surface::parse(inputs.program());
        match inputs.kind {
            Kind::TumblingSingle => {
                let r = surface::single_reasoner(&c);
                Own::Single(c, r)
            }
            Kind::TumblingDep => {
                let r = surface::parallel_reasoner(&c, &surface::analyze(&c), false);
                Own::Parallel(c, r)
            }
            _ => {
                let r = surface::incremental_reasoner(&c, &surface::analyze(&c), Strategy::Delta);
                Own::Incremental(c, r)
            }
        }
    }

    /// Processes `window`; returns the wall time of the call alone and the
    /// rendered answer per view.
    fn process(&mut self, window: &Window) -> (f64, Vec<(String, String)>) {
        let t0 = Instant::now();
        let (c, answers) = match self {
            Own::Single(c, r) => (c, surface::process_single(r, window)),
            Own::Parallel(c, r) => (c, surface::process_parallel(r, window)),
            Own::Incremental(c, r) => (c, surface::process_incremental(r, window)),
            Own::Tenants(engine) => {
                let outs = surface::process_tenants(engine, window).expect("tenant engine answers");
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                return (ms, outs.iter().map(surface::tenant_view).collect());
            }
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let answers = answers.expect("own reasoner answers");
        (ms, vec![(String::new(), surface::render(&c.syms, &answers))])
    }
}

/// One partition's maintained grounding and the window it stands for.
struct DeltaPart {
    grounder: DeltaGrounder,
    window_id: u64,
    fingerprint: u128,
    valid: bool,
}

/// The layers of one program, driven by hand.
struct Hand {
    views: Vec<String>,
    c: Compiled,
    a: Analysis,
    program_id: u64,
    format: FormatProcessor,
    grounder: Arc<Grounder>,
    /// `None`: the window is one partition and nothing is combined.
    partitioner: Option<Arc<dyn Partitioner>>,
    cache: Option<Arc<PartitionCache>>,
    delta: Option<Vec<DeltaPart>>,
    reference: SingleReasoner,
}

impl Hand {
    fn new(kind: Kind, text: &str, views: Vec<String>, cache: Option<Arc<PartitionCache>>) -> Hand {
        let c = surface::parse(text);
        let a = surface::analyze(&c);
        let grounder = surface::grounder(&c);
        let partitioner = (kind != Kind::TumblingSingle).then(|| a.partitioner.clone());
        let delta = (kind == Kind::SlidingChurn).then(|| {
            (0..surface::partitions(&*a.partitioner))
                .map(|_| DeltaPart {
                    grounder: surface::delta_grounder(&grounder),
                    window_id: 0,
                    fingerprint: 0,
                    valid: false,
                })
                .collect()
        });
        Hand {
            views,
            program_id: surface::program_fingerprint(&c),
            format: surface::format_processor(&c),
            reference: surface::single_reasoner(&c),
            grounder,
            partitioner,
            cache,
            delta,
            c,
            a,
        }
    }

    /// Scratch strategy for one bag of triples: transform, ground, solve.
    fn scratch(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        items: &[Triple],
        counts: &mut Counts,
    ) -> Vec<AnswerSet> {
        let facts = tr.span("rdf.to_facts", id, || surface::to_facts(&mut self.format, items));
        add(counts, "rdf.facts_out", facts.len());
        let gp = tr.span("grounder.ground", id, || surface::ground(&self.grounder, &facts));
        let (rules, atoms) = surface::ground_size(&gp);
        add(counts, "grounder.rules_out", rules);
        add(counts, "grounder.atoms_out", atoms);
        let solved = tr.span("solver.solve", id, || surface::solve(&self.c.syms, &gp));
        add(counts, "solver.vars", solved.vars);
        add(counts, "solver.clauses", solved.clauses);
        add(counts, "solver.conflicts", solved.conflicts as usize);
        add(counts, "solver.stability_checks", solved.stability_checks as usize);
        // Freeing a layer's output is that layer's cost: its representation
        // decides how expensive the free is.
        tr.span("rdf.to_facts", id, || drop(facts));
        tr.span("grounder.ground", id, || drop(gp));
        solved.answers
    }

    /// Delta strategy for partition `i`: apply the projected delta when it
    /// chains from the window the state stands for, re-ground otherwise.
    fn delta(
        &mut self,
        tr: &mut Tracer,
        window: &Window,
        i: usize,
        (items, fingerprint): (&[Triple], u128),
        projected: Option<&[surface::WindowDelta]>,
        counts: &mut Counts,
    ) -> Vec<AnswerSet> {
        let id = window.id;
        let st = &mut self.delta.as_mut().expect("delta strategy")[i];
        let chained = window.delta.as_ref().is_some_and(|d| st.valid && d.base_id == st.window_id);
        let mut applied = false;
        if let (true, Some(projected)) = (chained, projected) {
            let pd = &projected[i];
            let (added, retracted) = tr.span("rdf.to_facts", id, || {
                let added = surface::to_facts(&mut self.format, &pd.added);
                (added, surface::to_facts(&mut self.format, &pd.retracted))
            });
            add(counts, "rdf.facts_out", added.len() + retracted.len());
            applied = tr.span("grounder.delta_apply", id, || {
                surface::delta_apply(&mut st.grounder, &added, &retracted)
            });
        }
        if applied {
            add(counts, "delta.applies", 1);
        } else {
            let facts = tr.span("rdf.to_facts", id, || surface::to_facts(&mut self.format, items));
            add(counts, "rdf.facts_out", facts.len());
            tr.span("grounder.ground", id, || surface::delta_reground(&mut st.grounder, &facts));
            add(counts, "delta.regrounds", 1);
        }
        st.valid = true;
        st.window_id = id;
        st.fingerprint = fingerprint;
        let answers = tr.span("grounder.delta_answer", id, || {
            surface::delta_answer(&self.c.syms, &st.grounder)
        });
        add(
            counts,
            "grounder.delta_state_cells",
            surface::delta_state_cells(&st.grounder) as usize,
        );
        answers
    }

    /// Drives every layer for `window` and returns the combined answers.
    fn replay(&mut self, tr: &mut Tracer, window: &Window, counts: &mut Counts) -> Vec<AnswerSet> {
        let id = window.id;
        let root = tr.open(ROOT, id);
        let Some(partitioner) = self.partitioner.clone() else {
            let answers = self.scratch(tr, id, &window.items, counts);
            tr.close(root);
            return answers;
        };
        let parts = tr.span("partition.split", id, || surface::partition(&*partitioner, window));
        let routed: usize = parts.iter().map(Vec::len).sum();
        let largest = parts.iter().map(Vec::len).max().unwrap_or(0);
        counts.insert("partition.skew", largest as f64 * parts.len() as f64 / routed.max(1) as f64);
        counts.insert(
            "partition.dup_share",
            routed.saturating_sub(window.len()) as f64 / window.len().max(1) as f64,
        );

        let mut per_partition: Vec<Option<Arc<Vec<AnswerSet>>>> = vec![None; parts.len()];
        let mut fingerprints = vec![0u128; parts.len()];
        if let Some(cache) = self.cache.clone() {
            fingerprints = tr.span("incremental.fingerprint", id, || {
                parts.iter().map(|p| surface::fingerprint(p)).collect()
            });
            per_partition = tr.span("incremental.cache_get", id, || {
                fingerprints
                    .iter()
                    .map(|&fp| surface::cache_get(&cache, self.program_id, fp))
                    .collect()
            });
        }
        let dirty: Vec<usize> = (0..parts.len()).filter(|&i| per_partition[i].is_none()).collect();

        let mut projected = None;
        if let Some(states) = self.delta.as_mut() {
            // A clean partition's state still stands for this window.
            for (i, st) in states.iter_mut().enumerate() {
                if per_partition[i].is_some() && st.valid && st.fingerprint == fingerprints[i] {
                    st.window_id = id;
                }
            }
            if let (false, Some(delta)) = (dirty.is_empty(), window.delta.as_ref()) {
                projected =
                    Some(tr.span("stream.project", id, || surface::project(delta, &*partitioner)));
            }
        }
        for &i in &dirty {
            let answers = if self.delta.is_some() {
                let part = (parts[i].as_slice(), fingerprints[i]);
                self.delta(tr, window, i, part, projected.as_deref(), counts)
            } else {
                self.scratch(tr, id, &parts[i], counts)
            };
            let answers = Arc::new(answers);
            if let Some(cache) = &self.cache {
                tr.span("incremental.cache_insert", id, || {
                    surface::cache_insert(
                        cache,
                        self.program_id,
                        fingerprints[i],
                        Arc::clone(&answers),
                    );
                });
            }
            per_partition[i] = Some(answers);
        }
        let per_partition: Vec<Arc<Vec<AnswerSet>>> =
            per_partition.into_iter().map(|p| p.expect("cached or freshly answered")).collect();
        let combined =
            tr.span("combine.combine", id, || surface::combine(&self.c.syms, &per_partition));
        add(counts, "combine.atoms_out", surface::atoms_in(&combined));
        tr.span("partition.split", id, || drop(parts));
        tr.close(root);
        combined
    }

    /// PR_Ran_3 over the same window: the time of the random split and the
    /// paper's accuracy of its answers against R's.
    fn random3(&mut self, tr: &mut Tracer, window: &Window, reference: &[AnswerSet]) -> f64 {
        let random = surface::random_partitioner(3, 2017);
        let parts =
            tr.span("partition.random3", window.id, || surface::partition(&*random, window));
        // Not a layer of the workload: keep these spans off the record.
        let mut scratch = Tracer::new();
        let per_partition: Vec<Arc<Vec<AnswerSet>>> = parts
            .iter()
            .map(|p| Arc::new(self.scratch(&mut scratch, window.id, p, &mut Counts::new())))
            .collect();
        let combined = surface::combine(&self.c.syms, &per_partition);
        surface::accuracy(&self.c, &self.a, reference, &combined)
    }
}

/// What the traced pass reports.
pub struct Layered {
    pub attempted: u64,
    pub failed: u64,
    /// Every per-layer metric, by name.
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

/// Runs the traced pass within `seconds`.
pub fn layer_replay(inputs: &Inputs, seconds: f64) -> Layered {
    surface::assert_quiet();
    let tenants = inputs.kind == Kind::TenantsSliding;

    // The real system first: set-up stage times and the engine-side numbers
    // only an untraced closed loop can give.
    let (mut system, mut source, setup) = run::setup(inputs);
    let limits = Limits::seconds(seconds * UNTRACED_SHARE);
    let untraced = run::closed_loop(&mut system, &mut source, inputs, WARMUP, &limits, None);
    drop((system, source));
    let untraced_p50 = stats::median(untraced.latencies_ms.clone());

    let mut own = Own::new(inputs);
    let cache = (inputs.kind == Kind::SlidingChurn || tenants)
        .then(|| Arc::new(surface::partition_cache()));
    let mut hands: Vec<Hand> = inputs
        .programs()
        .into_iter()
        .map(|(text, views)| Hand::new(inputs.kind, &text, views, cache.clone()))
        .collect();
    // The serving entries as independent pipelines, for `vs_independent`.
    let mut independent: Vec<IncrementalReasoner> = if tenants {
        hands
            .iter()
            .map(|h| surface::incremental_reasoner(&h.c, &h.a, Strategy::CachedOrScratch))
            .collect()
    } else {
        Vec::new()
    };
    let mut sequential = (inputs.kind == Kind::TumblingDep)
        .then(|| surface::parallel_reasoner(&hands[0].c, &hands[0].a, true));

    let mut tr = Tracer::new();
    let mut warm = Tracer::new();
    let mut source = inputs.source(false);
    let mut per_window: Vec<Counts> = Vec::new();
    let (mut process_ms, mut sequential_ms) = (Vec::new(), Vec::new());
    let (mut independent_ms, mut random3_accuracy) = (Vec::new(), Vec::new());
    let mut cache_before = (0, 0, 0);
    let mut failed = 0;
    let started = Instant::now();
    let budget = seconds * (1.0 - UNTRACED_SHARE);
    for index in 0..WARMUP + REPLAY_WINDOWS {
        let measuring = index >= WARMUP;
        let n = index.saturating_sub(WARMUP);
        if n >= MIN_REPLAY_WINDOWS && started.elapsed().as_secs_f64() > budget {
            break;
        }
        if index == WARMUP {
            cache_before = cache.as_deref().map_or((0, 0, 0), surface::cache_counts);
        }
        let tracer = if measuring { &mut tr } else { &mut warm };
        let window = if tenants {
            // The only workload that runs a windower in the loop.
            let at = tracer.open("stream.window", index);
            let w = source.next_window();
            tracer.close(at);
            w
        } else {
            source.next_window()
        };
        assert_eq!(window.id, index, "every source numbers its windows from 0");
        let mut counts = Counts::new();
        if let Some(d) = &window.delta {
            add(&mut counts, "stream.delta_items", d.added.len() + d.retracted.len());
        }

        let (ms, own_views) = own.process(&window);
        let mut replayed = Vec::new();
        let mut expected = Vec::new();
        let mut reference_answers = Vec::new();
        for hand in &mut hands {
            let answers = hand.replay(tracer, &window, &mut counts);
            let rendered = surface::render(&hand.c.syms, &answers);
            reference_answers = surface::process_single(&mut hand.reference, &window)
                .expect("the reference reasoner answers");
            let reference = surface::render(&hand.c.syms, &reference_answers);
            for view in &hand.views {
                replayed.push((view.clone(), rendered.clone()));
                expected.push((view.clone(), reference.clone()));
            }
        }
        let t0 = Instant::now();
        for reasoner in &mut independent {
            surface::process_incremental(reasoner, &window).expect("independent pipeline answers");
        }
        let independent_window_ms = t0.elapsed().as_secs_f64() * 1e3;
        if !measuring {
            continue;
        }

        process_ms.push(ms);
        independent_ms.push(independent_window_ms);
        let same = run::same_views(&own_views, &expected) && run::same_views(&replayed, &expected);
        failed += u64::from(!same);
        if let Some(seq) = sequential.as_mut().filter(|_| n % SEQUENTIAL_EVERY == 0) {
            let t0 = Instant::now();
            surface::process_parallel(seq, &window).expect("sequential PR_Dep answers");
            sequential_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        if inputs.kind == Kind::TumblingDep && n % RANDOM3_EVERY == 0 {
            random3_accuracy.push(hands[0].random3(&mut tr, &window, &reference_answers));
        }
        per_window.push(counts);
    }

    // Per window: self time by span name, and the sum over the layers.
    let replayed = per_window.len();
    let self_ns = trace::self_times_ns(tr.spans());
    let mut layer_ms: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut layer_sum_ms = vec![0.0; replayed];
    for (span, ns) in tr.spans().iter().zip(&self_ns) {
        let w = (span.window_id - WARMUP) as usize;
        let ms = *ns as f64 / 1e6;
        layer_ms.entry(span.name).or_insert_with(|| vec![0.0; replayed])[w] += ms;
        if span.parent.is_some() {
            layer_sum_ms[w] += ms;
        }
    }
    // Medians per window; a layer that did not run in a window counts 0, a
    // layer that never ran has median 0.
    let layer = |name: &str| layer_ms.get(name).map_or(0.0, |v| stats::median(v.clone()));
    let count = |name: &str| {
        stats::median(per_window.iter().map(|c| c.get(name).copied().unwrap_or(0.0)).collect())
    };
    let total = |name: &str| per_window.iter().filter_map(|c| c.get(name)).sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ms = |s: f64| s * 1e3;

    let process = stats::median(process_ms.clone());
    let layer_sum = stats::median(layer_sum_ms);
    let sequential_process =
        if sequential_ms.is_empty() { process } else { stats::median(sequential_ms) };
    let cache_now = cache.as_deref().map_or((0, 0, 0), surface::cache_counts);
    let hits = (cache_now.0 - cache_before.0) as f64;
    let misses = (cache_now.1 - cache_before.1) as f64;
    let dedup = match &own {
        Own::Tenants(engine) => surface::dedup_ratio(engine),
        _ => 0.0,
    };
    let only_tenants = |v: f64| if tenants { v } else { 0.0 };

    let metrics = vec![
        ("parser.parse_ms", ms(setup.parse_s)),
        ("analysis.analyze_ms", ms(setup.analyze_s)),
        ("reasoner.build_ms", ms(setup.build_s)),
        ("reasoner.warmup_ms", ms(setup.warmup_s)),
        ("registry.admit_ms", ms(setup.admit_s)),
        ("rdf.to_facts_ms", layer("rdf.to_facts")),
        ("rdf.facts_out", count("rdf.facts_out")),
        ("stream.window_ms", layer("stream.window")),
        ("stream.delta_items", count("stream.delta_items")),
        ("stream.project_ms", layer("stream.project")),
        ("partition.split_ms", layer("partition.split")),
        ("partition.skew", count("partition.skew")),
        ("partition.dup_share", count("partition.dup_share")),
        // Over the windows PR_Ran_3 ran on, not all of them.
        ("partition.random3_ms", {
            let ran = layer_ms.get("partition.random3").into_iter().flatten();
            stats::median(ran.copied().filter(|v| *v > 0.0).collect())
        }),
        (
            "partition.random3_accuracy",
            ratio(random3_accuracy.iter().sum(), random3_accuracy.len() as f64),
        ),
        ("incremental.fingerprint_ms", layer("incremental.fingerprint")),
        ("incremental.cache_get_ms", layer("incremental.cache_get")),
        ("incremental.cache_hit_share", ratio(hits, hits + misses)),
        ("incremental.dirty_share", ratio(misses, hits + misses)),
        ("incremental.evictions", (cache_now.2 - cache_before.2) as f64),
        ("grounder.ground_ms", layer("grounder.ground")),
        ("grounder.rules_out", count("grounder.rules_out")),
        ("grounder.atoms_out", count("grounder.atoms_out")),
        ("grounder.delta_apply_ms", layer("grounder.delta_apply")),
        ("grounder.delta_answer_ms", layer("grounder.delta_answer")),
        (
            "grounder.delta_apply_share",
            ratio(total("delta.applies"), total("delta.applies") + total("delta.regrounds")),
        ),
        ("grounder.delta_state_cells", count("grounder.delta_state_cells")),
        ("solver.solve_ms", layer("solver.solve")),
        ("solver.vars", count("solver.vars")),
        ("solver.clauses", count("solver.clauses")),
        ("solver.conflicts", count("solver.conflicts")),
        ("solver.stability_checks", count("solver.stability_checks")),
        ("combine.combine_ms", layer("combine.combine")),
        ("combine.atoms_out", count("combine.atoms_out")),
        ("reasoner.process_ms", process),
        ("reasoner.layer_sum_ms", layer_sum),
        ("reasoner.unaccounted_share", 1.0 - ratio(layer_sum, sequential_process)),
        ("exec.parallel_speedup", ratio(layer_sum, process)),
        ("exec.cpu_ms_per_window", ratio(ms(untraced.cpu_s), untraced.attempted as f64)),
        ("engine.submit_blocked_share", ratio(untraced.blocked_s, untraced.wall_s)),
        ("engine.latency_over_process", ratio(untraced_p50, process)),
        ("multi_tenant.process_ms", only_tenants(process)),
        ("multi_tenant.dedup_share", dedup),
        (
            "multi_tenant.vs_independent",
            only_tenants(ratio(stats::median(independent_ms), process)),
        ),
    ];
    Layered {
        attempted: replayed as u64 + untraced.attempted,
        failed: failed + untraced.failed,
        metrics,
        spans: tr.into_spans(),
    }
}
