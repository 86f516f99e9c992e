//! The untraced pass: set the program up as a user would, drive it in a
//! closed loop from outside, stamp every window, check the answers.

use crate::stats;
use crate::surface::{
    self, AnswerSet, Compiled, EngineOutput, MultiTenantEngine, SingleReasoner, Strategy,
    StreamEngine, Symbols, TenantOutput, Window,
};
use crate::workloads::{Inputs, Kind, Source, WARMUP};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Segments `items_per_s` is the median of.
pub const SEGMENTS: usize = 5;
/// The sample of windows checked against the reference holds between
/// `MIN_SAMPLES` and twice that many, spread evenly over the run.
pub const MIN_SAMPLES: usize = 40;
/// How long the driver sleeps between polls of the engine's output.
const POLL_SLEEP: Duration = Duration::from_micros(100);
/// How long the driver waits for outstanding windows once it stops
/// submitting; what is still missing then has failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// The program under test, built the way the workload's user builds it.
pub enum System {
    Single { reasoner: SingleReasoner, syms: Symbols, ready: Option<Emitted> },
    Engine { engine: StreamEngine, syms: Symbols, blocked: Duration },
    Tenants { engine: MultiTenantEngine, ready: Option<Emitted> },
}

/// One window's answer as the program emitted it.
pub enum Emitted {
    Answers(Result<Vec<AnswerSet>, String>),
    Engine(Box<EngineOutput>),
    Tenants(Result<Vec<TenantOutput>, String>),
}

impl System {
    fn submit(&mut self, window: Window) {
        match self {
            System::Single { reasoner, ready, .. } => {
                *ready = Some(Emitted::Answers(surface::process_single(reasoner, &window)));
            }
            System::Engine { engine, blocked, .. } => {
                let t0 = Instant::now();
                surface::submit(engine, window);
                *blocked += t0.elapsed();
            }
            System::Tenants { engine, ready } => {
                *ready = Some(Emitted::Tenants(surface::process_tenants(engine, &window)));
            }
        }
    }

    fn poll(&mut self) -> Option<Emitted> {
        match self {
            System::Single { ready, .. } | System::Tenants { ready, .. } => ready.take(),
            System::Engine { engine, .. } => {
                surface::poll_output(engine).map(|out| Emitted::Engine(Box::new(out)))
            }
        }
    }

    /// Whether `poll` can come back empty while a window is outstanding.
    fn is_async(&self) -> bool {
        matches!(self, System::Engine { .. })
    }

    /// `(view, rendered answer)` per consumer of a window that did not
    /// fail: one view for a single program, one per tenant otherwise.
    fn views(&self, emitted: &Emitted) -> Vec<(String, String)> {
        match (self, emitted) {
            (System::Single { syms, .. }, Emitted::Answers(Ok(answers))) => {
                vec![(String::new(), surface::render(syms, answers))]
            }
            (System::Engine { syms, .. }, Emitted::Engine(out)) => {
                let answers = surface::engine_answers(out).expect("the window did not fail");
                vec![(String::new(), surface::render(syms, answers))]
            }
            (System::Tenants { .. }, Emitted::Tenants(Ok(outs))) => {
                outs.iter().map(surface::tenant_view).collect()
            }
            _ => unreachable!("a system emits its own kind of answer, and failures are not viewed"),
        }
    }
}

impl Emitted {
    /// Errored, degraded, or short of a tenant.
    fn failed(&self, tenants: usize) -> bool {
        match self {
            Emitted::Answers(r) => r.is_err(),
            Emitted::Engine(out) => surface::engine_answers(out).is_none(),
            Emitted::Tenants(Ok(outs)) => {
                outs.len() != tenants || outs.iter().any(surface::tenant_degraded)
            }
            Emitted::Tenants(Err(_)) => true,
        }
    }
}

/// Wall-clock seconds of each set-up stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub parse_s: f64,
    pub analyze_s: f64,
    pub build_s: f64,
    pub admit_s: f64,
    pub warmup_s: f64,
    pub total_s: f64,
}

/// Program text → parse → dependency analysis → reasoner/engine built (or
/// tenants admitted) → `WARMUP` windows answered. Returns the system, its
/// source positioned after the warm-up, and how long each stage took.
pub fn setup(inputs: &Inputs) -> (System, Source<'_>, SetupTimes) {
    let mut times = SetupTimes::default();
    let t_total = Instant::now();
    let timed = |slot: &mut f64, t0: Instant| *slot = t0.elapsed().as_secs_f64();
    let mut system = match inputs.kind {
        Kind::TenantsSliding => {
            let t0 = Instant::now();
            let mut engine = surface::tenant_engine();
            timed(&mut times.build_s, t0);
            let t0 = Instant::now();
            for (tenant, text) in inputs.tenants() {
                surface::admit(&mut engine, &tenant, &text);
            }
            timed(&mut times.admit_s, t0);
            System::Tenants { engine, ready: None }
        }
        kind => {
            let t0 = Instant::now();
            let compiled = surface::parse(inputs.program());
            timed(&mut times.parse_s, t0);
            if kind == Kind::TumblingSingle {
                let t0 = Instant::now();
                let reasoner = surface::single_reasoner(&compiled);
                timed(&mut times.build_s, t0);
                System::Single { reasoner, syms: compiled.syms, ready: None }
            } else {
                let t0 = Instant::now();
                let analysis = surface::analyze(&compiled);
                timed(&mut times.analyze_s, t0);
                let t0 = Instant::now();
                let strategy =
                    if kind == Kind::SlidingChurn { Strategy::Delta } else { Strategy::Scratch };
                let engine = surface::engine(&compiled, &analysis, strategy, inputs.in_flight());
                timed(&mut times.build_s, t0);
                System::Engine { engine, syms: compiled.syms, blocked: Duration::ZERO }
            }
        }
    };
    let t0 = Instant::now();
    let mut source = inputs.source(true);
    let warm = closed_loop(&mut system, &mut source, inputs, 0, &Limits::count(WARMUP), None);
    assert_eq!(warm.failed, 0, "warm-up windows answer");
    timed(&mut times.warmup_s, t0);
    timed(&mut times.total_s, t_total);
    (system, source, times)
}

/// When the closed loop stops submitting.
pub struct Limits {
    pub seconds: f64,
    pub min_windows: u64,
    pub max_windows: u64,
}

impl Limits {
    pub fn count(windows: u64) -> Limits {
        Limits { seconds: 0.0, min_windows: windows, max_windows: windows }
    }

    pub fn seconds(seconds: f64) -> Limits {
        // Enough windows for every segment even if `seconds` is tiny.
        Limits { seconds, min_windows: 4 * SEGMENTS as u64, max_windows: u64::MAX }
    }
}

/// Digest of one rendered answer: enough to compare with the reference
/// later without keeping the text.
pub type Digest = (u64, usize);

pub fn digest(rendered: &str) -> Digest {
    (surface::fnv1a(surface::FNV_OFFSET, rendered.as_bytes()), rendered.len())
}

/// The windows whose answers are kept (as digests) for the reference check:
/// every `stride`-th, the stride doubling whenever twice `MIN_SAMPLES` are
/// held, so the sample stays evenly spread whatever the run length.
pub struct Samples {
    stride: u64,
    /// `(stream index, view → digest)`.
    pub kept: Vec<(u64, Vec<(String, Digest)>)>,
}

impl Samples {
    pub fn new() -> Samples {
        Samples { stride: 1, kept: Vec::new() }
    }

    fn wants(&self, measured: u64) -> bool {
        measured % self.stride == 0
    }

    fn keep(&mut self, measured: u64, index: u64, views: Vec<(String, Digest)>) {
        self.kept.push((index, views));
        if self.kept.len() > 2 * MIN_SAMPLES {
            self.stride *= 2;
            let (stride, first) = (self.stride, index - measured);
            self.kept.retain(|(i, _)| (i - first) % stride == 0);
        }
    }
}

/// What one closed-loop run observed.
pub struct LoopResult {
    pub attempted: u64,
    /// Windows that errored, were degraded, lacked a tenant or never came.
    pub failed: u64,
    /// Driver-stamped submit → emission, per emitted window.
    pub latencies_ms: Vec<f64>,
    /// Emission times, seconds since `started`.
    pub done_s: Vec<f64>,
    pub wall_s: f64,
    /// Process CPU seconds (user + system) spent during the loop.
    pub cpu_s: f64,
    /// Seconds `submit` kept the driver waiting.
    pub blocked_s: f64,
}

/// Drives `system` in a closed loop: exactly `inputs.in_flight()` windows
/// outstanding, the next one submitted when one is emitted. `first_index`
/// is the stream index of the first window submitted.
pub fn closed_loop(
    system: &mut System,
    source: &mut Source<'_>,
    inputs: &Inputs,
    first_index: u64,
    limits: &Limits,
    mut samples: Option<&mut Samples>,
) -> LoopResult {
    let tenants = inputs.tenants().len();
    let blocked_before = match system {
        System::Engine { blocked, .. } => *blocked,
        _ => Duration::ZERO,
    };
    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let mut outstanding: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut result = LoopResult {
        attempted: 0,
        failed: 0,
        latencies_ms: Vec::new(),
        done_s: Vec::new(),
        wall_s: 0.0,
        cpu_s: 0.0,
        blocked_s: 0.0,
    };
    let mut drain_from: Option<Instant> = None;
    loop {
        let submitting = result.attempted < limits.max_windows
            && (result.attempted < limits.min_windows
                || started.elapsed().as_secs_f64() < limits.seconds);
        if submitting {
            while outstanding.len() < inputs.in_flight() && result.attempted < limits.max_windows {
                let window = source.next_window();
                outstanding.push_back((result.attempted, Instant::now()));
                result.attempted += 1;
                system.submit(window);
            }
        } else if outstanding.is_empty() {
            break;
        } else if drain_from.get_or_insert_with(Instant::now).elapsed() > DRAIN_TIMEOUT {
            result.failed += outstanding.len() as u64;
            break;
        }
        match system.poll() {
            Some(emitted) => {
                let now = Instant::now();
                // Emission is ordered, so this is the oldest outstanding window.
                let (measured, submitted) = outstanding.pop_front().expect("a window was pending");
                result.latencies_ms.push((now - submitted).as_secs_f64() * 1e3);
                result.done_s.push((now - started).as_secs_f64());
                if emitted.failed(tenants) {
                    result.failed += 1;
                } else if let Some(samples) = samples.as_deref_mut() {
                    if samples.wants(measured) {
                        let views = system.views(&emitted);
                        let digests = views.into_iter().map(|(v, r)| (v, digest(&r))).collect();
                        samples.keep(measured, first_index + measured, digests);
                    }
                }
            }
            None if system.is_async() => std::thread::sleep(POLL_SLEEP),
            None => {}
        }
    }
    result.wall_s = started.elapsed().as_secs_f64();
    result.cpu_s = cpu_seconds() - cpu_before;
    if let System::Engine { blocked, .. } = system {
        result.blocked_s = (*blocked - blocked_before).as_secs_f64();
    }
    result
}

/// The unpartitioned reasoner R over each distinct program: what every
/// answer is checked against, outside the timed phase.
pub struct Reference {
    /// `(views served, program, reasoner)` per distinct program text.
    programs: Vec<(Vec<String>, Compiled, SingleReasoner)>,
}

impl Reference {
    pub fn new(inputs: &Inputs) -> Reference {
        let programs = inputs
            .programs()
            .into_iter()
            .map(|(text, views)| {
                let compiled = surface::parse(&text);
                let reasoner = surface::single_reasoner(&compiled);
                (views, compiled, reasoner)
            })
            .collect();
        Reference { programs }
    }

    /// `(view, rendered reference answer)` for every view of `window`.
    pub fn views(&mut self, window: &Window) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (views, compiled, reasoner) in &mut self.programs {
            let answers =
                surface::process_single(reasoner, window).expect("the reference reasoner answers");
            let rendered = surface::render(&compiled.syms, &answers);
            out.extend(views.iter().map(|v| (v.clone(), rendered.clone())));
        }
        out
    }
}

/// Walks a fresh source up to the last sampled window and counts the
/// sampled windows whose answer differs from the reference in any view.
pub fn mismatches(inputs: &Inputs, samples: &Samples) -> u64 {
    let mut reference = Reference::new(inputs);
    let mut by_slot: HashMap<usize, Vec<(String, Digest)>> = HashMap::new();
    let mut source = inputs.source(false);
    let mut failed = 0;
    for (index, got) in &samples.kept {
        let window = source.window_at(*index);
        let mut expect = |w: &Window| -> Vec<(String, Digest)> {
            reference.views(w).into_iter().map(|(v, r)| (v, digest(&r))).collect()
        };
        let expected = match inputs.ring_slot(*index) {
            Some(slot) => by_slot.entry(slot).or_insert_with(|| expect(&window)).clone(),
            None => expect(&window),
        };
        failed += u64::from(!same_views(got, &expected));
    }
    failed
}

/// Same views with the same answers, whatever the order.
pub fn same_views<T: PartialEq>(got: &[(String, T)], expected: &[(String, T)]) -> bool {
    got.len() == expected.len() && expected.iter().all(|e| got.contains(e))
}

/// The end-to-end numbers of one untraced run.
pub struct EndToEnd {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub items_per_s: f64,
    /// Median over the segments of each segment's percentile, like
    /// `items_per_s`: a burst of slow windows stays inside its segment.
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub peak_rss_mb: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Windows whose answer was checked against the reference.
    pub checked: usize,
    /// The values each reported median was taken over, for the log.
    pub detail: String,
}

/// Sets up, measures for `seconds`, reads the peak memory, then sets up
/// `setups - 1` more times so that `setup_s` is a median, and checks the
/// sampled answers. The extra set-ups come after the memory reading: each
/// builds and drops a whole system, and what the allocator keeps of those
/// would otherwise show in `peak_rss_mb`.
pub fn end_to_end(inputs: &Inputs, seconds: f64, setups: usize) -> EndToEnd {
    surface::assert_quiet();
    let (mut system, mut source, times) = setup(inputs);
    let mut setup_s = vec![times.total_s];
    let mut samples = Samples::new();
    let limits = Limits::seconds(seconds);
    let run = closed_loop(&mut system, &mut source, inputs, WARMUP, &limits, Some(&mut samples));
    let peak_rss_mb = peak_rss_mb();
    drop((system, source));
    for _ in 1..setups {
        setup_s.push(setup(inputs).2.total_s);
    }
    let failed = run.failed + mismatches(inputs, &samples);
    let rates = stats::segment_rates(&run.done_s, 0.0, inputs.slide as f64, SEGMENTS);
    let p50 = stats::segment_percentiles(&run.latencies_ms, 0.50, SEGMENTS);
    let p95 = stats::segment_percentiles(&run.latencies_ms, 0.95, SEGMENTS);
    EndToEnd {
        attempted: run.attempted,
        failed,
        setup_s: stats::median(setup_s.clone()),
        items_per_s: stats::median(rates.clone()),
        latency_p50_ms: stats::median(p50.clone()),
        latency_p95_ms: stats::median(p95.clone()),
        peak_rss_mb,
        samples: run.latencies_ms.len(),
        checked: samples.kept.len(),
        detail: format!(
            "set-ups s {setup_s:.3?}; per segment: items/s {rates:.0?}, p50 ms {p50:.2?}, p95 ms {p95:.2?}"
        ),
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process (0 where `/proc` is absent).
/// `/proc/self/stat` counts in clock ticks, 100 per second on Linux.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the line.
            let rest = s.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_evenly_spread_and_bounded() {
        let mut s = Samples::new();
        for measured in 0..1000u64 {
            if s.wants(measured) {
                s.keep(measured, WARMUP + measured, Vec::new());
            }
        }
        assert!((MIN_SAMPLES..=2 * MIN_SAMPLES).contains(&s.kept.len()), "{}", s.kept.len());
        let gaps: Vec<u64> = s.kept.windows(2).map(|p| p[1].0 - p[0].0).collect();
        assert!(gaps.iter().all(|g| *g == gaps[0]), "{gaps:?}");
        assert_eq!(s.kept[0].0, WARMUP);
    }

    #[test]
    fn a_corrupted_answer_is_counted_as_failed() {
        let inputs = Inputs::new(Kind::TumblingDep, 7, 50);
        let (mut system, mut source, _) = setup(&inputs);
        let mut samples = Samples::new();
        let run = closed_loop(
            &mut system,
            &mut source,
            &inputs,
            WARMUP,
            &Limits::count(12),
            Some(&mut samples),
        );
        assert_eq!((run.attempted, run.failed, samples.kept.len()), (12, 0, 12));
        assert_eq!(mismatches(&inputs, &samples), 0);
        // Flip one byte's worth of one sampled answer.
        samples.kept[5].1[0].1 .0 ^= 1;
        assert_eq!(mismatches(&inputs, &samples), 1);
    }

    #[test]
    fn views_compare_as_sets() {
        let a = ("t0".to_string(), (1, 1));
        let b = ("t1".to_string(), (2, 2));
        assert!(same_views(&[a.clone(), b.clone()], &[b.clone(), a.clone()]));
        assert!(!same_views(std::slice::from_ref(&a), &[a.clone(), b.clone()]));
        assert!(!same_views(&[a.clone(), a.clone()], &[a, b]));
    }
}
