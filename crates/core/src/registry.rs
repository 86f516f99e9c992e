//! Runtime program registry for multi-tenant serving.
//!
//! The ROADMAP north-star is many concurrent *programs* (per-user
//! monitoring rules) subscribed to one stream. [`ProgramRegistry`] admits
//! and retires tenant programs at runtime and deduplicates them by
//! **serving key** `(program fingerprint, partitioner)`: tenants whose
//! program text renders identically (see
//! [`program_fingerprint`] — the
//! fingerprint hashes the rendered rules, so it is independent of which
//! `Symbols` store parsed them) and who ask for the same partitioning share
//! one [`IncrementalReasoner`] and its per-window result.
//! The partitioner is part of the key because partitioning can change
//! answers (the paper's random baseline trades accuracy for balance);
//! sharing across different partitioners would silently change a tenant's
//! output.
//!
//! Each admitted program gets its **own `Symbols` store** (its community
//! reasoners resolve symbol ids against the store their program was built
//! from, so programs must never mix stores) and its own reasoner, which
//! reuses the communities a window's delta leaves untouched from the last
//! window *it* answered. Entries share one [`ExecCtx`]: one worker pool,
//! sized [`ReasonerConfig::workers`] (or the first admitted program's
//! partition count when that is `0`) and built at the first admission that
//! needs one — the scheduler runs each entry as one job on it, and the
//! entry's dirty partitions fan out over the same pool — plus the reuse,
//! planner and retry/fallback counters every entry reports into. A
//! re-admitted program starts cold: its first window recomputes every
//! community.

use crate::admission::{AdmissionPolicy, AdmitError, ProgramBounds};
use crate::analysis::DependencyAnalysis;
use crate::config::{AnalysisConfig, ReasonerConfig};
use crate::exec::ExecCtx;
use crate::incremental::{program_fingerprint, IncrementalReasoner};
use crate::parallel::partition_pool;
use crate::partition::{Partitioner, PlanPartitioner, RandomPartitioner};
use crate::poison::lock_recover;
use asp_core::{AspError, Symbols};
use asp_parser::parse_program;
use std::sync::{Arc, Mutex};

/// How a tenant's window partitioning is chosen at admission. Part of the
/// serving key: tenants only share work when both the program fingerprint
/// *and* the partitioner choice match.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TenantPartitioner {
    /// Run the paper's input-dependency analysis and partition by the
    /// resulting plan (content-routed; exact answers).
    #[default]
    Dependency,
    /// The random k-way baseline (window-seeded; answers may differ from
    /// the dependency plan's, which is exactly why this is part of the
    /// serving key).
    Random {
        /// Number of partitions.
        k: usize,
        /// PRNG seed.
        seed: u64,
    },
}

/// One admitted program: its private `Symbols` store, its shared
/// [`IncrementalReasoner`] (behind a mutex, so the scheduler's job for the
/// entry can carry it to a pool worker) and the tenants subscribed to it
/// (admission order).
pub struct ProgramEntry {
    pub(crate) fingerprint: u64,
    pub(crate) partitioner: TenantPartitioner,
    pub(crate) syms: Symbols,
    pub(crate) reasoner: Arc<Mutex<IncrementalReasoner>>,
    pub(crate) tenants: Vec<String>,
    /// Windows this entry failed (panic/error) or blew its deadline on,
    /// consecutively; reset on a healthy window.
    pub(crate) consecutive_failures: u32,
    /// A quarantined entry is skipped by the scheduler until readmitted.
    pub(crate) quarantined: bool,
    /// The static bounds computed at admission.
    pub(crate) bounds: ProgramBounds,
}

impl ProgramEntry {
    /// The program fingerprint (first half of the serving key).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The partitioner choice (second half of the serving key).
    pub fn partitioner(&self) -> TenantPartitioner {
        self.partitioner
    }

    /// Tenants subscribed to this program, in admission order.
    pub fn tenants(&self) -> &[String] {
        &self.tenants
    }

    /// The program-scoped symbol store (needed to render this program's
    /// answer sets).
    pub fn symbols(&self) -> &Symbols {
        &self.syms
    }

    /// Number of partitions the program's reasoner fans out over.
    pub fn partitions(&self) -> usize {
        lock_recover(&self.reasoner).partitions()
    }

    /// True when the scheduler has quarantined this entry (see
    /// [`MultiTenantEngine::process`](crate::multi_tenant::MultiTenantEngine::process)).
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// The static memory/evaluation-order bounds computed at admission.
    pub fn bounds(&self) -> &ProgramBounds {
        &self.bounds
    }
}

/// The registry: admit/retire tenants, dedup programs by serving key, count
/// reuse across all of them. See the module docs.
pub struct ProgramRegistry {
    pub(crate) config: ReasonerConfig,
    /// The pool and counters every entry's reasoner shares; the scheduler
    /// adds its quarantines to the failure counters.
    pub(crate) ctx: ExecCtx,
    policy: AdmissionPolicy,
    /// Admitted programs in first-admission order — the deterministic
    /// scheduling order of the multi-tenant engine.
    entries: Vec<ProgramEntry>,
}

impl ProgramRegistry {
    /// An empty registry. `config` applies to every admitted program. The
    /// default [`AdmissionPolicy`] admits everything (no budget).
    pub fn new(config: ReasonerConfig) -> Self {
        ProgramRegistry {
            config,
            ctx: ExecCtx::default(),
            policy: AdmissionPolicy::default(),
            entries: Vec::new(),
        }
    }

    /// Replaces the admission policy. Applies to future admissions only —
    /// already-admitted entries are never retroactively rejected.
    pub fn set_policy(&mut self, policy: AdmissionPolicy) {
        self.policy = policy;
    }

    /// The admission policy in force.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// Admits `tenant` with `source`. If the rendered program and the
    /// partitioner choice match an already-admitted entry, the tenant
    /// attaches to it (no new reasoner or store); otherwise the
    /// program is parsed into a fresh `Symbols` store, analyzed, and gets
    /// its own [`IncrementalReasoner`]. Returns the
    /// program fingerprint. Fails with a structured [`AdmitError`] on a
    /// duplicate tenant id, a program that does not parse/analyze, or a
    /// static bound over the policy budget.
    pub fn admit(
        &mut self,
        tenant: &str,
        source: &str,
        partitioner: TenantPartitioner,
    ) -> Result<u64, AdmitError> {
        if self.entries.iter().any(|e| e.tenants.iter().any(|t| t == tenant)) {
            return Err(AdmitError::DuplicateTenant { tenant: tenant.to_string() });
        }
        let syms = Symbols::new();
        let program = parse_program(&syms, source)?;
        let fingerprint = program_fingerprint(&syms, &program);
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|e| e.fingerprint == fingerprint && e.partitioner == partitioner)
        {
            // Duplicate program: attach the tenant, drop the scratch store.
            // The serving entry already passed this policy (or a prior one)
            // at first admission; attaching adds no state.
            entry.tenants.push(tenant.to_string());
            return Ok(fingerprint);
        }
        let analysis =
            DependencyAnalysis::analyze(&syms, &program, None, &AnalysisConfig::default())?;
        // The admission bound is always the worst case: live RelationStats
        // are deliberately not consulted (a transiently small store must
        // not admit a program that can outgrow memory later).
        let bounds = match partitioner {
            TenantPartitioner::Dependency => {
                ProgramBounds::analyze(&syms, &program, &analysis, &self.policy.window)
            }
            TenantPartitioner::Random { k, .. } => {
                ProgramBounds::uniform(&syms, &program, &analysis.inpre, k, &self.policy.window)
            }
        };
        if let Some(budget) = self.policy.budget_cells {
            if bounds.total_cells.exceeds(budget) {
                return Err(AdmitError::OverBudget {
                    bound: bounds.total_cells,
                    budget,
                    dominating: bounds.dominating.clone(),
                });
            }
        }
        let part: Arc<dyn Partitioner> = match partitioner {
            TenantPartitioner::Dependency => {
                Arc::new(PlanPartitioner::new(analysis.plan.clone(), self.config.unknown))
            }
            TenantPartitioner::Random { k, seed } => Arc::new(RandomPartitioner::new(k, seed)),
        };
        if self.ctx.pool.is_none() {
            let workers = match self.config.workers {
                0 => part.partitions(),
                n => n,
            };
            self.ctx.pool = partition_pool(&self.config, workers)?;
        }
        // One reasoner per program entry: its reuse slots are shared by
        // every tenant that attaches later.
        let reasoner = IncrementalReasoner::with_ctx(
            &syms,
            &program,
            Some(&analysis.inpre),
            part,
            self.config.clone(),
            self.ctx.clone(),
        )?;
        self.entries.push(ProgramEntry {
            fingerprint,
            partitioner,
            syms,
            reasoner: Arc::new(Mutex::new(reasoner)),
            tenants: vec![tenant.to_string()],
            consecutive_failures: 0,
            quarantined: false,
            bounds,
        });
        Ok(fingerprint)
    }

    /// Retires `tenant`, returning its program fingerprint. When the last
    /// tenant of a program leaves, the whole entry — reasoner, reuse slots,
    /// symbol store — is dropped; the shared pool and counters stay.
    pub fn retire(&mut self, tenant: &str) -> Result<u64, AspError> {
        for (idx, entry) in self.entries.iter_mut().enumerate() {
            if let Some(pos) = entry.tenants.iter().position(|t| t == tenant) {
                entry.tenants.remove(pos);
                let fingerprint = entry.fingerprint;
                if entry.tenants.is_empty() {
                    self.entries.remove(idx);
                }
                return Ok(fingerprint);
            }
        }
        Err(AspError::Internal(format!("tenant '{tenant}' is not admitted")))
    }

    /// Tenants currently admitted.
    pub fn tenant_count(&self) -> usize {
        self.entries.iter().map(|e| e.tenants.len()).sum()
    }

    /// Distinct serving entries (programs × partitioner choices) admitted.
    pub fn program_count(&self) -> usize {
        self.entries.len()
    }

    /// True when no tenant is admitted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The admitted entries in first-admission order.
    pub fn entries(&self) -> &[ProgramEntry] {
        &self.entries
    }

    /// Mutable entry access for the scheduler's per-entry bookkeeping.
    pub(crate) fn entries_mut(&mut self) -> &mut [ProgramEntry] {
        &mut self.entries
    }

    /// The serving entry `tenant` is attached to, if admitted.
    pub fn entry_of(&self, tenant: &str) -> Option<&ProgramEntry> {
        self.entries.iter().find(|e| e.tenants.iter().any(|t| t == tenant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParallelMode;

    const PROGRAM_A: &str = "jam(X) :- slow(X), busy(X), not light(X).";
    const PROGRAM_B: &str = "fire(X) :- smoke(X), heat(X).";

    fn registry() -> ProgramRegistry {
        ProgramRegistry::new(ReasonerConfig {
            incremental: true,
            mode: ParallelMode::Sequential,
            ..Default::default()
        })
    }

    #[test]
    fn duplicate_fingerprint_attaches_instead_of_rebuilding() {
        let mut reg = registry();
        let fp_a = reg.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        let fp_dup = reg.admit("t1", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        assert_eq!(fp_a, fp_dup, "identical source renders to one fingerprint");
        assert_eq!(reg.program_count(), 1, "the duplicate attached, no second entry");
        assert_eq!(reg.tenant_count(), 2);
        assert_eq!(reg.entries()[0].tenants(), ["t0", "t1"]);
        let fp_b = reg.admit("t2", PROGRAM_B, TenantPartitioner::Dependency).unwrap();
        assert_ne!(fp_a, fp_b);
        assert_eq!(reg.program_count(), 2);
    }

    #[test]
    fn partitioner_choice_is_part_of_the_serving_key() {
        let mut reg = registry();
        reg.admit("dep", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        reg.admit("ran", PROGRAM_A, TenantPartitioner::Random { k: 2, seed: 7 }).unwrap();
        assert_eq!(
            reg.program_count(),
            2,
            "same program under a different partitioner must not share results"
        );
        reg.admit("ran2", PROGRAM_A, TenantPartitioner::Random { k: 2, seed: 7 }).unwrap();
        assert_eq!(reg.program_count(), 2, "identical random choice does share");
        assert_eq!(reg.entry_of("ran2").unwrap().tenants(), ["ran", "ran2"]);
    }

    #[test]
    fn entries_share_one_pool_sized_by_workers() {
        let mut reg = ProgramRegistry::new(ReasonerConfig { workers: 2, ..Default::default() });
        for i in 0..4 {
            let source = format!("{PROGRAM_A}\ntenant_tag({i}).");
            reg.admit(&format!("t{i}"), &source, TenantPartitioner::Dependency).unwrap();
        }
        assert_eq!(reg.program_count(), 4, "four distinct programs, four entries");
        let pool = reg.ctx.pool.clone().expect("Threads mode builds a pool");
        assert_eq!(pool.workers(), 2, "one 2-worker pool, not one per entry");
        for entry in reg.entries() {
            let reasoner = lock_recover(&entry.reasoner);
            let entry_pool = reasoner.ctx().pool.as_ref().expect("entries use the pool");
            assert!(Arc::ptr_eq(entry_pool, &pool), "every entry runs on the registry's pool");
        }
    }

    #[test]
    fn duplicate_tenant_id_is_rejected() {
        let mut reg = registry();
        reg.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        let err = reg.admit("t0", PROGRAM_B, TenantPartitioner::Dependency).unwrap_err();
        assert!(err.to_string().contains("already admitted"), "{err}");
        assert_eq!(reg.tenant_count(), 1, "the failed admission left no trace");
    }

    #[test]
    fn retiring_the_last_tenant_drops_the_entry() {
        let mut reg = registry();
        reg.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        reg.admit("t1", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        reg.retire("t0").unwrap();
        assert_eq!(reg.program_count(), 1, "t1 still holds the program");
        assert_eq!(reg.tenant_count(), 1);
        reg.retire("t1").unwrap();
        assert!(reg.is_empty(), "last tenant out, entry dropped");
        assert!(reg.retire("t1").is_err(), "retiring twice fails");
    }

    #[test]
    fn bad_programs_are_rejected_at_admission() {
        let mut reg = registry();
        assert!(reg.admit("t0", "jam(X :-", TenantPartitioner::Dependency).is_err());
        assert!(reg.is_empty(), "nothing admitted");
    }

    #[test]
    fn over_budget_program_is_rejected_with_the_dominating_term() {
        use crate::admission::{AdmissionPolicy, AdmitError, WindowSpec};
        let mut reg = registry();
        reg.set_policy(AdmissionPolicy::with_budget(WindowSpec::tuple(1000), 10));
        let err = reg.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap_err();
        match &err {
            AdmitError::OverBudget { budget, dominating, .. } => {
                assert_eq!(*budget, 10);
                assert!(!dominating.component.is_empty());
            }
            other => panic!("expected OverBudget, got {other}"),
        }
        assert!(err.to_string().contains("exceeds budget 10"), "{err}");
        assert!(reg.is_empty(), "rejected program left no entry");
    }

    #[test]
    fn admission_computes_bounds_for_every_entry() {
        let mut reg = registry();
        reg.admit("t0", PROGRAM_A, TenantPartitioner::Dependency).unwrap();
        reg.admit("t1", PROGRAM_B, TenantPartitioner::Random { k: 3, seed: 1 }).unwrap();
        let dep = reg.entry_of("t0").unwrap().bounds();
        assert!(dep.total_cells.cells().unwrap() > 0);
        let ran = reg.entry_of("t1").unwrap().bounds();
        assert_eq!(ran.partitions.len(), 3, "random k-way bound has k partitions");
    }
}
