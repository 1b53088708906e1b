//! The top-level allocation search.
//!
//! [`Scheduler::plan`] partitions the cluster between tenants:
//!
//! 1. **Candidate generation** — for every §4 buddy-aligned mesh, build the
//!    tenant's restricted search space (assignments confined to meshes
//!    nested in the candidate allocation) and price it with a short MCMC
//!    chain ([`real_search::search_within`], which keeps only
//!    memory-feasible plans contained in the allocation and prices each
//!    chosen plan once, in the search itself). The chain is deliberately
//!    short ([`SchedConfig::score_steps`]): the allocation search evaluates
//!    dozens of (tenant, mesh) pairs and only needs a consistent relative
//!    ranking plus a memory-feasible plan (the greedy start alone is
//!    usually memory-infeasible — the §5.2 caveat); the winning split is
//!    refined with a longer warm-started chain afterwards.
//! 2. **Split search** — enumerate pairwise-disjoint combinations of the
//!    candidate meshes ([`partition::enumerate_splits`]) and keep the split
//!    minimizing priority-weighted makespan `Σᵢ pᵢ·stepᵢ·itersᵢ` among
//!    those whose worst per-tenant stretch (vs. running alone on the full
//!    cluster) stays within [`SchedConfig::max_stretch`]. If every split
//!    violates the bound, the bound is relaxed (recorded in
//!    [`Schedule::stretch_relaxed`]) rather than rejecting the workload.
//! 3. **Oversubscription fallback** — when no disjoint split exists, the
//!    cluster is oversubscribed: tenants are placed greedily in priority
//!    order, preferring disjoint meshes but sharing when they must
//!    ([`TenantPlan::time_shared`]). At run time a tenant whose mesh is
//!    taken waits for it — slower, never deadlocked.
//! 4. **Refinement** — each placed tenant's greedy plan seeds a
//!    warm-started MCMC chain over its restricted space (budget
//!    [`SchedConfig::refine_steps`]), seeded per tenant id so results are
//!    reproducible and independent of co-tenant membership.
//!
//! `real-serve`'s event loop executes the schedule (`real_serve::run_sched`):
//! every tenant arrives at t = 0 on its placement.

use real_cluster::{partition, ClusterSpec, DeviceMesh};
use real_core::Tenant;
use real_dataflow::ExecutionPlan;
use real_estimator::{CostMemo, Estimator, MemoStats};
use real_search::{search_within, McmcConfig, PruneLevel};
use real_util::DeterministicRng;
use std::fmt;
use std::time::Duration;

/// Tunables for the allocation search.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedConfig {
    /// Prune level for the per-tenant restricted search spaces.
    pub prune: PruneLevel,
    /// MCMC budget for pricing each candidate (tenant, mesh) pair during
    /// the allocation search. Short on purpose — it only needs a
    /// memory-feasible plan and a stable relative ranking.
    pub score_steps: u64,
    /// MCMC budget for refining each tenant's plan on its final
    /// allocation. `0` keeps the scoring plans.
    pub refine_steps: u64,
    /// MCMC sampling temperature for refinement.
    pub beta: f64,
    /// Fairness bound: no tenant's estimated step may exceed `max_stretch`
    /// times its solo (full-cluster) step. Relaxed when infeasible.
    pub max_stretch: f64,
    /// Cap on the number of disjoint splits scored (deterministic prefix
    /// of the lexicographic enumeration).
    pub max_splits: usize,
    /// Seed for refinement chains and the run's tenant substreams.
    pub seed: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            prune: PruneLevel::Aggressive,
            score_steps: 300,
            refine_steps: 2_000,
            beta: 6.0,
            max_stretch: 4.0,
            max_splits: 20_000,
            seed: 1,
        }
    }
}

/// Why scheduling failed.
#[derive(Debug)]
pub enum SchedError {
    /// The tenant list was empty.
    NoTenants,
    /// A tenant's experiment targets a different cluster than the
    /// scheduler manages.
    ClusterMismatch {
        /// Offending tenant name.
        tenant: String,
    },
    /// Two tenants share an id (ids seed RNG substreams, so they must be
    /// unique).
    DuplicateId(u64),
    /// No candidate mesh can hold the tenant within device memory.
    Infeasible {
        /// Offending tenant name.
        tenant: String,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::NoTenants => write!(f, "no tenants to schedule"),
            SchedError::ClusterMismatch { tenant } => write!(
                f,
                "tenant `{tenant}` targets a different cluster than the scheduler"
            ),
            SchedError::DuplicateId(id) => write!(f, "duplicate tenant id {id}"),
            SchedError::Infeasible { tenant } => write!(
                f,
                "tenant `{tenant}` fits no candidate allocation (out of device memory)"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

/// One tenant's placement in a [`Schedule`].
#[derive(Debug, Clone)]
pub struct TenantPlan {
    /// Tenant display name.
    pub name: String,
    /// Stable tenant id.
    pub id: u64,
    /// Priority weight.
    pub priority: f64,
    /// Iterations the tenant will run.
    pub iterations: usize,
    /// The allocated mesh (other tenants may share it when
    /// [`time_shared`](Self::time_shared), taking turns on it).
    pub allocation: DeviceMesh,
    /// The refined execution plan, confined to the allocation.
    pub plan: ExecutionPlan,
    /// Estimated per-iteration step time on the allocation.
    pub est_step_secs: f64,
    /// Estimated step time running alone on the full cluster.
    pub solo_step_secs: f64,
    /// Whether the allocation overlaps another tenant's (oversubscribed
    /// time-sharing).
    pub time_shared: bool,
}

impl TenantPlan {
    /// Estimated slowdown versus running alone on the full cluster.
    pub fn stretch(&self) -> f64 {
        if self.solo_step_secs > 0.0 {
            self.est_step_secs / self.solo_step_secs
        } else {
            1.0
        }
    }
}

/// The allocation search's output: per-tenant placements plus the
/// objective values they were chosen on.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Placements, in tenant admission order.
    pub tenants: Vec<TenantPlan>,
    /// Estimated priority-weighted makespan `Σᵢ pᵢ·stepᵢ·itersᵢ`.
    pub weighted_makespan: f64,
    /// Worst estimated per-tenant stretch.
    pub max_stretch: f64,
    /// Whether any allocation is time-shared (no disjoint split existed).
    pub oversubscribed: bool,
    /// Whether the stretch bound had to be relaxed to place every tenant.
    pub stretch_relaxed: bool,
    /// Memo-cache statistics summed over every per-(tenant, mesh)
    /// candidate probe and refinement search. Each tenant shares one
    /// [`CostMemo`] across all its probes, so the admission sweep re-prices
    /// a `(call, assignment)` pair at most once per health epoch.
    pub memo: MemoStats,
}

impl Schedule {
    /// A schedule of `tenants`, with its objective values and
    /// oversubscription flag computed from the placements. `stretch_relaxed`
    /// and `memo` record how the placements were searched (`false` and
    /// default statistics for a hand-placed schedule).
    pub fn new(tenants: Vec<TenantPlan>, stretch_relaxed: bool, memo: MemoStats) -> Self {
        let weighted_makespan = tenants
            .iter()
            .map(|p| p.priority * p.est_step_secs * p.iterations as f64)
            .sum();
        let max_stretch = tenants
            .iter()
            .map(TenantPlan::stretch)
            .fold(0.0f64, f64::max);
        let oversubscribed = tenants.iter().any(|p| p.time_shared);
        Self {
            tenants,
            weighted_makespan,
            max_stretch,
            oversubscribed,
            stretch_relaxed,
            memo,
        }
    }

    /// Renders the schedule as an aligned table plus objective summary —
    /// the `real sched --dry-run` output.
    pub fn render(&self) -> String {
        let mut table = real_util::Table::new(vec![
            "tenant",
            "prio",
            "iters",
            "allocation",
            "gpus",
            "est step (s)",
            "solo (s)",
            "stretch",
            "shared",
        ]);
        for t in &self.tenants {
            table.row(vec![
                t.name.clone(),
                format!("{:.1}", t.priority),
                t.iterations.to_string(),
                t.allocation.to_string(),
                t.allocation.n_gpus().to_string(),
                format!("{:.3}", t.est_step_secs),
                format!("{:.3}", t.solo_step_secs),
                format!("{:.2}", t.stretch()),
                if t.time_shared { "yes" } else { "no" }.to_string(),
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "\npriority-weighted makespan: {:.3}s   max stretch: {:.2}{}{}\n",
            self.weighted_makespan,
            self.max_stretch,
            if self.oversubscribed {
                "   [oversubscribed: time-sharing]"
            } else {
                ""
            },
            if self.stretch_relaxed {
                "   [stretch bound relaxed]"
            } else {
                ""
            },
        ));
        out.push_str(&format!(
            "plan memo: {} hits / {} misses (hit rate {:.1}%)\n",
            self.memo.hits,
            self.memo.misses,
            self.memo.hit_rate() * 100.0,
        ));
        out
    }
}

/// One candidate placement: a mesh, the greedy plan on it, and its price.
struct Candidate {
    mesh: DeviceMesh,
    plan: ExecutionPlan,
    step: f64,
}

/// The multi-tenant scheduler for one cluster.
#[derive(Debug, Clone)]
pub struct Scheduler {
    cluster: ClusterSpec,
    config: SchedConfig,
}

impl Scheduler {
    /// A scheduler with default [`SchedConfig`].
    pub fn new(cluster: ClusterSpec) -> Self {
        Self {
            cluster,
            config: SchedConfig::default(),
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: SchedConfig) -> Self {
        self.config = config;
        self
    }

    /// The managed cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The active configuration.
    pub fn config(&self) -> &SchedConfig {
        &self.config
    }

    /// Runs the allocation search. See the module docs for the algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError`] when the tenant list is empty or inconsistent
    /// with the cluster, or when some tenant fits no candidate mesh.
    pub fn plan(&self, tenants: &[Tenant]) -> Result<Schedule, SchedError> {
        self.plan_prepared(tenants).map(|(schedule, _)| schedule)
    }

    /// [`Scheduler::plan`], also returning each tenant's §5 estimator (in
    /// tenant order), so an executor of the schedule does not profile the
    /// tenants again.
    ///
    /// # Errors
    ///
    /// As [`Scheduler::plan`].
    pub fn plan_prepared(
        &self,
        tenants: &[Tenant],
    ) -> Result<(Schedule, Vec<Estimator>), SchedError> {
        if tenants.is_empty() {
            return Err(SchedError::NoTenants);
        }
        for t in tenants {
            if t.experiment().cluster() != &self.cluster {
                return Err(SchedError::ClusterMismatch {
                    tenant: t.name().to_string(),
                });
            }
        }
        for (i, t) in tenants.iter().enumerate() {
            if tenants[..i].iter().any(|prev| prev.id() == t.id()) {
                return Err(SchedError::DuplicateId(t.id()));
            }
        }

        let ests: Vec<Estimator> = tenants.iter().map(|t| t.experiment().prepare().0).collect();
        // One shared memo cache per tenant: every candidate probe below
        // prices the same calls on overlapping (mesh, strategy) options, so
        // later meshes mostly hit entries the earlier ones populated.
        let mut memos: Vec<CostMemo> = tenants.iter().map(|_| CostMemo::new()).collect();

        // Candidate generation: price every feasible (tenant, mesh) pair.
        let all_meshes = DeviceMesh::enumerate(&self.cluster);
        let full = DeviceMesh::full(&self.cluster);
        let mut candidates: Vec<Vec<Candidate>> = Vec::with_capacity(tenants.len());
        let mut solo: Vec<f64> = Vec::with_capacity(tenants.len());
        for (i, tenant) in tenants.iter().enumerate() {
            let mut cands = Vec::new();
            for (mesh_index, mesh) in all_meshes.iter().enumerate() {
                // Seeded by (seed, tenant id, mesh): a tenant's candidate
                // prices are independent of co-tenant membership.
                let mut rng = DeterministicRng::from_seed(self.config.seed)
                    .derive("alloc")
                    .derive_index(tenant.id())
                    .derive_index(mesh_index as u64);
                let cfg = McmcConfig {
                    beta: self.config.beta,
                    max_steps: self.config.score_steps,
                    time_limit: Duration::from_secs(86_400),
                    seed: rng.next_u64(),
                    record_trace: false,
                };
                let prune = self.config.prune;
                if let Some(r) = search_within(&ests[i], mesh, prune, &cfg, None, &mut memos[i]) {
                    cands.push(Candidate {
                        mesh: *mesh,
                        plan: r.best_plan,
                        step: r.best_time_cost,
                    });
                }
            }
            if cands.is_empty() {
                return Err(SchedError::Infeasible {
                    tenant: tenant.name().to_string(),
                });
            }
            // Fastest first, so the capped split enumeration explores good
            // placements before hitting `max_splits`. Ties break on mesh
            // coordinates for determinism.
            cands.sort_by(|a, b| {
                a.step
                    .partial_cmp(&b.step)
                    .expect("step times are finite")
                    .then_with(|| a.mesh.cmp(&b.mesh))
            });
            let solo_step = cands
                .iter()
                .find(|c| c.mesh == full)
                .map(|c| c.step)
                .unwrap_or(cands[0].step);
            solo.push(solo_step);
            candidates.push(cands);
        }

        // Split search over disjoint placements.
        let options: Vec<Vec<DeviceMesh>> = candidates
            .iter()
            .map(|cands| cands.iter().map(|c| c.mesh).collect())
            .collect();
        let splits = partition::enumerate_splits(&options, self.config.max_splits);

        let step_of = |tenant: usize, mesh: &DeviceMesh| -> f64 {
            candidates[tenant]
                .iter()
                .find(|c| &c.mesh == mesh)
                .expect("split meshes come from the candidate list")
                .step
        };
        let objective = |split: &[DeviceMesh]| -> (f64, f64) {
            let mut weighted = 0.0;
            let mut worst = 0.0f64;
            for (i, mesh) in split.iter().enumerate() {
                let step = step_of(i, mesh);
                weighted += tenants[i].priority() * step * tenants[i].iterations() as f64;
                worst = worst.max(step / solo[i]);
            }
            (weighted, worst)
        };

        let mut stretch_relaxed = false;
        let chosen: Vec<(DeviceMesh, bool)> = if splits.is_empty() {
            // Oversubscribed: no disjoint split exists. Place greedily in
            // priority order (ties: admission order), sharing when forced.
            self.place_oversubscribed(tenants, &candidates)
        } else {
            let best_bounded = splits
                .iter()
                .map(|s| (s, objective(s)))
                .filter(|(_, (_, worst))| *worst <= self.config.max_stretch)
                .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite objective"));
            let (split, _) = match best_bounded {
                Some(found) => found,
                None => {
                    stretch_relaxed = true;
                    splits
                        .iter()
                        .map(|s| (s, objective(s)))
                        .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite objective"))
                        .expect("splits is non-empty")
                }
            };
            split.iter().map(|mesh| (*mesh, false)).collect()
        };

        // Refinement: warm-started MCMC per tenant on the final allocation.
        let mut placements = Vec::with_capacity(tenants.len());
        for (i, tenant) in tenants.iter().enumerate() {
            let (mesh, time_shared) = chosen[i];
            let incumbent = candidates[i]
                .iter()
                .find(|c| c.mesh == mesh)
                .expect("chosen mesh comes from the candidate list");
            let mut plan = incumbent.plan.clone();
            let mut step = incumbent.step;
            if self.config.refine_steps > 0 {
                // Seeded per tenant id, not list position: co-tenant
                // membership must not perturb a tenant's refined plan.
                let mut rng = DeterministicRng::from_seed(self.config.seed)
                    .derive("sched")
                    .derive_index(tenant.id());
                let cfg = McmcConfig {
                    beta: self.config.beta,
                    max_steps: self.config.refine_steps,
                    // Step-bounded only: wall-clock cutoffs would make the
                    // schedule depend on machine load.
                    time_limit: Duration::from_secs(86_400),
                    seed: rng.next_u64(),
                    record_trace: false,
                };
                let refined = search_within(
                    &ests[i],
                    &mesh,
                    self.config.prune,
                    &cfg,
                    Some(&plan),
                    &mut memos[i],
                );
                if let Some(r) = refined.filter(|r| r.best_time_cost < step) {
                    plan = r.best_plan;
                    step = r.best_time_cost;
                }
            }
            placements.push(TenantPlan {
                name: tenant.name().to_string(),
                id: tenant.id(),
                priority: tenant.priority(),
                iterations: tenant.iterations(),
                allocation: mesh,
                plan,
                est_step_secs: step,
                solo_step_secs: solo[i],
                time_shared,
            });
        }

        let memo = memos
            .iter()
            .fold(MemoStats::default(), |acc, m| acc.merged(m.stats()));
        Ok((Schedule::new(placements, stretch_relaxed, memo), ests))
    }

    /// Greedy placement for oversubscribed clusters: tenants in priority
    /// order pick their fastest candidate disjoint from everything already
    /// placed, falling back to their overall fastest (shared) mesh.
    fn place_oversubscribed(
        &self,
        tenants: &[Tenant],
        candidates: &[Vec<Candidate>],
    ) -> Vec<(DeviceMesh, bool)> {
        let mut order: Vec<usize> = (0..tenants.len()).collect();
        order.sort_by(|&a, &b| {
            tenants[b]
                .priority()
                .partial_cmp(&tenants[a].priority())
                .expect("priorities are finite")
                .then_with(|| a.cmp(&b))
        });
        let mut chosen: Vec<Option<(DeviceMesh, bool)>> = vec![None; tenants.len()];
        for &idx in &order {
            let placed: Vec<DeviceMesh> = chosen
                .iter()
                .filter_map(|c| c.map(|(mesh, _)| mesh))
                .collect();
            let disjoint = candidates[idx]
                .iter()
                .find(|c| placed.iter().all(|p| !p.overlaps(&c.mesh)));
            match disjoint {
                Some(c) => chosen[idx] = Some((c.mesh, false)),
                None => {
                    // Forced to share: take the fastest mesh and mark every
                    // overlapped tenant as time-shared too.
                    let mesh = candidates[idx][0].mesh;
                    for other in chosen.iter_mut().flatten() {
                        if other.0.overlaps(&mesh) {
                            other.1 = true;
                        }
                    }
                    chosen[idx] = Some((mesh, true));
                }
            }
        }
        chosen
            .into_iter()
            .map(|c| c.expect("every tenant was placed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_core::Experiment;
    use real_dataflow::algo::RlhfConfig;
    use real_model::ModelSpec;

    fn quick_config() -> SchedConfig {
        SchedConfig {
            refine_steps: 200,
            ..SchedConfig::default()
        }
    }

    fn dpo_tenant(cluster: &ClusterSpec, name: &str, id: u64, batch: u64) -> Tenant {
        let exp = Experiment::dpo(
            cluster.clone(),
            ModelSpec::llama3_7b(),
            RlhfConfig::instruct_gpt(batch),
        )
        .with_quick_profile();
        Tenant::new(name, id, exp)
    }

    #[test]
    fn two_tenants_get_disjoint_allocations() {
        let cluster = ClusterSpec::h100(2);
        let tenants = vec![
            dpo_tenant(&cluster, "a", 0, 64).with_priority(2.0),
            dpo_tenant(&cluster, "b", 1, 32),
        ];
        let schedule = Scheduler::new(cluster)
            .with_config(quick_config())
            .plan(&tenants)
            .unwrap();
        assert_eq!(schedule.tenants.len(), 2);
        assert!(!schedule.oversubscribed);
        assert!(!schedule.tenants[0]
            .allocation
            .overlaps(&schedule.tenants[1].allocation));
        for t in &schedule.tenants {
            assert!(t.est_step_secs > 0.0);
            assert!(t.stretch() >= 1.0 - 1e-9);
            assert!(!t.time_shared);
        }
        assert!(schedule.weighted_makespan > 0.0);
        let rendered = schedule.render();
        assert!(rendered.contains("a") && rendered.contains("weighted makespan"));
    }

    #[test]
    fn admission_probes_share_the_per_tenant_memo_cache() {
        let cluster = ClusterSpec::h100(2);
        let tenants = vec![
            dpo_tenant(&cluster, "a", 0, 64),
            dpo_tenant(&cluster, "b", 1, 32),
        ];
        let schedule = Scheduler::new(cluster)
            .with_config(quick_config())
            .plan(&tenants)
            .unwrap();
        // Candidate probes over overlapping meshes re-price the same
        // (call, assignment) pairs, so the shared cache must report reuse.
        assert!(schedule.memo.hits > 0, "memo stats: {:?}", schedule.memo);
        assert!(schedule.memo.misses > 0);
        assert!(schedule.memo.hit_rate() > 0.0);
        assert_eq!(schedule.memo.invalidations, 0);
        assert!(schedule.render().contains("plan memo:"));
    }

    #[test]
    fn planning_is_deterministic() {
        let cluster = ClusterSpec::h100(2);
        let tenants = vec![
            dpo_tenant(&cluster, "a", 0, 64),
            dpo_tenant(&cluster, "b", 1, 32),
        ];
        let sched = Scheduler::new(cluster).with_config(quick_config());
        let s1 = sched.plan(&tenants).unwrap();
        let s2 = sched.plan(&tenants).unwrap();
        assert_eq!(
            s1.weighted_makespan.to_bits(),
            s2.weighted_makespan.to_bits()
        );
        for (a, b) in s1.tenants.iter().zip(&s2.tenants) {
            assert_eq!(a.allocation, b.allocation);
            assert_eq!(a.est_step_secs.to_bits(), b.est_step_secs.to_bits());
        }
    }

    #[test]
    fn bad_tenant_sets_are_rejected() {
        let cluster = ClusterSpec::h100(1);
        let sched = Scheduler::new(cluster.clone());
        assert!(matches!(sched.plan(&[]), Err(SchedError::NoTenants)));

        let dup = vec![
            dpo_tenant(&cluster, "a", 0, 32),
            dpo_tenant(&cluster, "b", 0, 32),
        ];
        assert!(matches!(sched.plan(&dup), Err(SchedError::DuplicateId(0))));

        let other = vec![dpo_tenant(&ClusterSpec::h100(2), "a", 0, 32)];
        assert!(matches!(
            sched.plan(&other),
            Err(SchedError::ClusterMismatch { .. })
        ));
    }
}
