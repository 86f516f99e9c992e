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
//! The hooks are zero-cost when off: every site first checks a single
//! relaxed atomic load ([`injection_enabled`]) and bails. Installing a plan
//! ([`install`]) flips that flag; [`clear`] turns injection back off.
//! Plans are process-global — tests that install one must serialize via
//! [`test_guard`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crate::poison::lock_recover;

/// A named injection point in the pipeline. The discriminants feed the
/// decision hash, so they are fixed: a seeded plan fires at the same
/// coordinates across releases (2 belonged to a retired site).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic inside a worker/partition closure (including a serving entry's
    /// partitions in the multi-tenant scheduler).
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

/// Fast-path gate: one relaxed load when injection is off.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn plan_slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static PLAN: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    PLAN.get_or_init(|| Mutex::new(None))
}

/// Whether a fault plan is installed. This is the zero-cost-when-off check:
/// a single relaxed atomic load.
#[inline]
pub fn injection_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install `plan` process-wide and enable injection.
pub fn install(plan: FaultPlan) {
    *lock_recover(plan_slot()) = Some(Arc::new(plan));
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disable injection and drop the installed plan.
pub fn clear() {
    ENABLED.store(false, Ordering::Relaxed);
    *lock_recover(plan_slot()) = None;
}

/// The currently installed plan, if any.
pub fn active_plan() -> Option<Arc<FaultPlan>> {
    if !injection_enabled() {
        return None;
    }
    lock_recover(plan_slot()).clone()
}

/// Hook entry point: does `site` fire at `(window_id, partition)` under the
/// installed plan? `false` (after one atomic load) when injection is off.
#[inline]
pub fn fires(site: FaultSite, window_id: u64, partition: u64) -> bool {
    if !injection_enabled() {
        return false;
    }
    match active_plan() {
        Some(plan) => plan.fires(site, window_id, partition),
        None => false,
    }
}

/// Stall duration of the installed plan (default if none installed).
pub fn stall_duration() -> Duration {
    active_plan().map(|p| p.stall()).unwrap_or_else(|| FaultPlan::new().stall())
}

/// Serialize tests (across crates) that install the process-global plan.
/// Hold the guard for the whole test, and `clear()` before releasing it.
pub fn test_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    lock_recover(GUARD.get_or_init(|| Mutex::new(())))
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
    fn global_install_gates_the_hook() {
        let _guard = test_guard();
        clear();
        assert!(!injection_enabled());
        assert!(!fires(FaultSite::WorkerPanic, 1, 0));
        install(FaultPlan::new().with_rule(FaultSite::WorkerPanic, 1.0, 9));
        assert!(injection_enabled());
        assert!(fires(FaultSite::WorkerPanic, 1, 0));
        assert!(!fires(FaultSite::SourceStall, 1, 0));
        clear();
        assert!(!fires(FaultSite::WorkerPanic, 1, 0));
    }
}
