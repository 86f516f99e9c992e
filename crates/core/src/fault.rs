//! Deterministic fault injection for exercising the recovery machinery.
//!
//! A [`FaultPlan`] names *sites* in the pipeline and, per site, a seeded
//! firing rate. Whether a fault fires at a site is a pure function of
//! `(seed, site, window_id, partition)` — an FNV hash compared against the
//! rate threshold — so a plan replays identically regardless of thread
//! interleaving, worker count, or retry timing. Retries deliberately do
//! *not* re-consult the hooks, so an injected fault is recoverable on the
//! first retry and the harness measures the recovery path, not repeated
//! injection.
//!
//! A plan is a value, not process state: it rides on
//! [`ReasonerConfig::faults`](crate::ReasonerConfig::faults) to every
//! reasoner, pool, engine and registry built from that config, and a
//! component built without one checks a `None` and moves on. Two engines
//! in one process therefore never see each other's faults.

use std::time::Duration;

/// A named injection point in the pipeline. The discriminants feed the
/// decision hash, so they are fixed: a seeded plan fires at the same
/// coordinates across releases (2 belonged to a retired site).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic inside a partition job, pooled or on the caller thread
    /// (including a serving entry's partitions in the multi-tenant
    /// scheduler).
    WorkerPanic = 0,
    /// Sleep inside a partition job before doing its work, simulating a
    /// wedged solver; combined with a window deadline this forces the
    /// degraded-emission path.
    PartitionSlowdown = 1,
    /// Treat a partition-cache hit as a miss, forcing a recompute.
    CacheInvalidate = 3,
    /// Stall `StreamEngine::submit`, simulating a slow source.
    SourceStall = 4,
}

impl FaultSite {
    /// Stable lowercase name used in `--fault-spec` and JSON.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::PartitionSlowdown => "partition_slowdown",
            FaultSite::CacheInvalidate => "cache_invalidate",
            FaultSite::SourceStall => "source_stall",
        }
    }

    /// Parse a site name as accepted by `--fault-spec`.
    pub fn parse(s: &str) -> Option<FaultSite> {
        Self::all().iter().copied().find(|site| site.name() == s)
    }

    /// Every injection site, in a stable order.
    pub fn all() -> &'static [FaultSite] {
        &[
            FaultSite::WorkerPanic,
            FaultSite::PartitionSlowdown,
            FaultSite::CacheInvalidate,
            FaultSite::SourceStall,
        ]
    }
}

/// One site's injection rule: fire at `rate` (0.0..=1.0), decided by `seed`.
#[derive(Debug, Clone, Copy)]
pub struct FaultRule {
    /// Where to inject.
    pub site: FaultSite,
    /// Probability mass of firing per (window, partition) coordinate.
    pub rate: f64,
    /// Seed folded into the per-coordinate decision hash.
    pub seed: u64,
}

/// A deterministic, seeded schedule of faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    stall: Duration,
}

impl FaultPlan {
    /// An empty plan (no sites fire) with the default stall duration.
    pub fn new() -> FaultPlan {
        FaultPlan { rules: Vec::new(), stall: Duration::from_millis(15) }
    }

    /// Add an injection rule. `rate` is clamped to `0.0..=1.0`.
    pub fn with_rule(mut self, site: FaultSite, rate: f64, seed: u64) -> FaultPlan {
        self.rules.push(FaultRule { site, rate: rate.clamp(0.0, 1.0), seed });
        self
    }

    /// Set how long `PartitionSlowdown` and `SourceStall` sleep when firing.
    pub fn with_stall(mut self, stall: Duration) -> FaultPlan {
        self.stall = stall;
        self
    }

    /// Parse a `--fault-spec` string: comma-separated `<site>:<rate>:<seed>`
    /// entries, e.g. `worker_panic:0.05:42,cache_invalidate:0.1:7`.
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let mut parts = entry.split(':');
            let (site, rate, seed) = match (parts.next(), parts.next(), parts.next(), parts.next())
            {
                (Some(site), Some(rate), Some(seed), None) => (site, rate, seed),
                _ => return Err(format!("fault-spec entry '{entry}': want <site>:<rate>:<seed>")),
            };
            let site = FaultSite::parse(site).ok_or_else(|| {
                let names: Vec<&str> = FaultSite::all().iter().map(|s| s.name()).collect();
                format!("fault-spec site '{site}' unknown; one of {}", names.join(", "))
            })?;
            let rate: f64 = rate
                .parse()
                .map_err(|_| format!("fault-spec entry '{entry}': rate must be a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault-spec entry '{entry}': rate must be in 0.0..=1.0"));
            }
            let seed: u64 = seed
                .parse()
                .map_err(|_| format!("fault-spec entry '{entry}': seed must be an integer"))?;
            plan = plan.with_rule(site, rate, seed);
        }
        if plan.rules.is_empty() {
            return Err("fault-spec is empty".into());
        }
        Ok(plan)
    }

    /// The rules in this plan.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Stall duration used by the slowdown/stall sites.
    pub fn stall(&self) -> Duration {
        self.stall
    }

    /// Deterministic firing decision for `site` at `(window_id, partition)`.
    pub fn fires(&self, site: FaultSite, window_id: u64, partition: u64) -> bool {
        self.rules.iter().filter(|r| r.site == site).any(|r| {
            let h = decision_hash(r.seed, site, window_id, partition);
            (h % 1_000_000) < (r.rate * 1_000_000.0) as u64
        })
    }

    /// The hook every partition job runs first, pooled or on the caller
    /// thread, at its own `(window_id, partition)` coordinate: sleep for
    /// [`FaultPlan::stall`] when `PartitionSlowdown` fires there, then panic
    /// when `WorkerPanic` does.
    pub fn before_partition(&self, window_id: u64, partition: usize) {
        let coordinate = partition as u64;
        if self.fires(FaultSite::PartitionSlowdown, window_id, coordinate) {
            std::thread::sleep(self.stall);
        }
        if self.fires(FaultSite::WorkerPanic, window_id, coordinate) {
            panic!("injected worker fault (window {window_id}, partition {partition})");
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new()
    }
}

/// FNV-1a over the decision coordinates; stable across platforms.
fn decision_hash(seed: u64, site: FaultSite, window_id: u64, partition: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [seed, site.name().len() as u64 ^ site as u64, window_id, partition] {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Always `false`: no process-wide plan exists any more. Kept for the
/// measured surface, which asserts it before every run; that surface builds
/// each `ReasonerConfig` with `..Default::default()`, so its `faults` is
/// `None` and no fault can fire there.
pub fn injection_enabled() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_rate_shaped() {
        let plan = FaultPlan::new().with_rule(FaultSite::WorkerPanic, 0.25, 42);
        let first: Vec<bool> =
            (0..400).map(|w| plan.fires(FaultSite::WorkerPanic, w, w % 4)).collect();
        let second: Vec<bool> =
            (0..400).map(|w| plan.fires(FaultSite::WorkerPanic, w, w % 4)).collect();
        assert_eq!(first, second, "same plan, same coordinates, same answers");
        let hits = first.iter().filter(|f| **f).count();
        assert!((40..=160).contains(&hits), "rate 0.25 over 400 draws, got {hits}");
        assert!(
            !(0..400).any(|w| plan.fires(FaultSite::CacheInvalidate, w, 0)),
            "sites without a rule never fire"
        );
    }

    #[test]
    fn spec_parsing_round_trips_and_rejects_junk() {
        let plan = FaultPlan::parse_spec("worker_panic:0.05:42, cache_invalidate:1:7").unwrap();
        assert_eq!(plan.rules().len(), 2);
        assert_eq!(plan.rules()[0].site, FaultSite::WorkerPanic);
        assert_eq!(plan.rules()[1].rate, 1.0);
        let retired = FaultPlan::parse_spec("delta_corrupt:1:7").unwrap_err();
        assert!(retired.contains("'delta_corrupt' unknown"), "retired site rejected: {retired}");
        assert!(FaultPlan::parse_spec("").is_err());
        assert!(FaultPlan::parse_spec("bogus:0.5:1").is_err());
        assert!(FaultPlan::parse_spec("worker_panic:2.0:1").is_err());
        assert!(FaultPlan::parse_spec("worker_panic:0.5").is_err());
    }

    #[test]
    fn the_partition_hook_fires_only_at_planned_coordinates() {
        let quiet = FaultPlan::new().with_rule(FaultSite::CacheInvalidate, 1.0, 9);
        quiet.before_partition(1, 0);
        let panicky = FaultPlan::new().with_rule(FaultSite::WorkerPanic, 1.0, 9);
        let hit = std::panic::catch_unwind(|| panicky.before_partition(1, 3));
        let msg = *hit.expect_err("rate 1.0 panics").downcast::<String>().unwrap();
        assert_eq!(msg, "injected worker fault (window 1, partition 3)");
        let slow = FaultPlan::new()
            .with_rule(FaultSite::PartitionSlowdown, 1.0, 9)
            .with_stall(Duration::from_millis(5));
        let t0 = std::time::Instant::now();
        slow.before_partition(1, 0);
        assert!(t0.elapsed() >= Duration::from_millis(5), "a firing slowdown stalls");
    }
}
