//! The multi-tenant master loop: several experiments, one virtual cluster.
//!
//! [`run_multi`] interleaves N tenant workloads on one shared set of GPU
//! timelines, round-robin by RLHF iteration. Each tenant brings its own
//! dataflow graph, execution plan, engine config, and (optionally) fault
//! plan; the scheduler layer (`real-sched`) is responsible for picking the
//! per-tenant allocations, this module only executes them.
//!
//! # Fault domains
//!
//! Tenant isolation is structural, not policed:
//!
//! - every random draw a tenant makes comes from its own substream, seeded
//!   from `(seed, tenant id)` via the `real-util` stream API — adding or
//!   removing a co-tenant cannot shift another tenant's stream,
//! - a tenant's fault clock is compiled from its own [`real_sim::FaultPlan`]
//!   and consulted only while that tenant executes, so a crash in tenant
//!   A's mesh stretches and retries only A's events,
//! - traces, master logs, fault statistics, and reports are per-tenant.
//!
//! With pairwise-disjoint allocations the tenants never touch the same
//! timeline entries, so each tenant's report is byte-identical to the same
//! tenant running alone (test-enforced). Overlapping allocations
//! (oversubscription) are legal: the shared FIFO timelines serialize the
//! contending work, which is exactly the time-sharing semantics the
//! scheduler falls back to — nothing can deadlock because no event ever
//! waits on a future one.
//!
//! # Elastic rebalancing
//!
//! When a tenant finishes, its GPUs join a free pool that is offered to the
//! highest-stretch surviving tenant that opted in ([`TenantRun::elastic`]).
//! The offer goes through the same gate as mid-run re-planning: warm-started
//! MCMC over the §4 meshes inside the grown holdings, an estimated-speedup
//! gate, a reallocation prologue executed under snapshot-rollback, and a
//! measured cost/benefit gate — a rejected offer leaves the tenant
//! bit-exactly where it was.
//!
//! Each tenant's iterations run through the runtime's one iteration driver
//! (the same per-call step and gate as [`RuntimeEngine::run`] and
//! `run_replan`), here on timelines shared by all tenants.

use crate::config::EngineConfig;
use crate::driver::Driver;
use crate::master::{RunError, RuntimeEngine};
use crate::replan::{ReplanPolicy, ReplanReason};
use crate::report::RunReport;
use real_cluster::{partition, ClusterSpec, GpuId};
use real_dataflow::{DataflowGraph, ExecutionPlan};
use real_estimator::Estimator;
use real_search::SearchSpace;
use real_sim::{Category, Timelines};
use real_util::DeterministicRng;

/// Elastic-rebalancing opt-in for one tenant: the re-plan gate parameters
/// and the §5 estimator (for the tenant's graph on the shared cluster) that
/// prices candidate plans when freed GPUs are offered.
#[derive(Debug, Clone)]
pub struct TenantElastic {
    /// Gate parameters (search budget, speedup/benefit thresholds) — the
    /// same knobs as mid-run re-planning.
    pub policy: ReplanPolicy,
    /// Estimator for this tenant's graph, built on the shared cluster.
    pub estimator: Estimator,
}

/// One tenant workload admitted to [`run_multi`].
#[derive(Debug, Clone)]
pub struct TenantRun {
    /// Stable tenant identity; seeds the tenant's RNG substream, so it must
    /// not depend on the tenant's position in the list.
    pub id: u64,
    /// Display name used in reports and traces.
    pub name: String,
    /// The tenant's dataflow graph.
    pub graph: DataflowGraph,
    /// The tenant's execution plan (all meshes inside its allocation).
    pub plan: ExecutionPlan,
    /// Engine configuration (jitter, fault plan, retry policy, …). The
    /// `seed` field is ignored: tenant streams derive from the `run_multi`
    /// seed and the tenant id.
    pub config: EngineConfig,
    /// RLHF iterations to run.
    pub iterations: usize,
    /// The GPUs this tenant owns (its allocation's GPU set).
    pub allocation: Vec<GpuId>,
    /// Estimated solo (full-cluster or uncontended) step seconds, used to
    /// rank tenants by stretch when offering freed capacity. `0.0` disables
    /// the stretch ranking for this tenant.
    pub solo_step_secs: f64,
    /// Elastic-rebalancing opt-in; `None` keeps the tenant's plan and
    /// holdings fixed for the whole run.
    pub elastic: Option<TenantElastic>,
}

/// Per-GPU per-category busy seconds, captured before a tenant's turn.
fn busy_snapshot(tl: &Timelines) -> Vec<Vec<f64>> {
    (0..tl.len())
        .map(|g| Category::ALL.iter().map(|&c| tl.busy(g, c)).collect())
        .collect()
}

/// Adds the per-GPU busy deltas since `before` to the tenant's category
/// accumulators. Untouched GPUs contribute exact zeros, so a tenant's
/// totals are bitwise independent of co-tenant activity on other GPUs.
fn accumulate_busy(state: &mut TenantState, tl: &Timelines, before: &[Vec<f64>]) {
    for (g, row) in before.iter().enumerate() {
        for (k, &b) in row.iter().enumerate() {
            state.totals_acc[k] += tl.busy(g, Category::ALL[k]) - b;
        }
    }
}

/// Per-tenant live state of the multi-tenant loop: the tenant's driver on
/// the shared timelines plus its holdings and accounting.
struct TenantState {
    driver: Driver,
    owned: Vec<GpuId>,
    totals_acc: Vec<f64>,
    done: bool,
    total_time: f64,
}

impl TenantState {
    /// Observed stretch of tenant `t`: measured step time over its solo
    /// estimate; `1.0` when no solo estimate was supplied.
    fn stretch(&self, t: &TenantRun, last_iter: usize) -> f64 {
        if t.solo_step_secs > 0.0 {
            self.driver.mean_step(last_iter) / t.solo_step_secs
        } else {
            1.0
        }
    }
}

/// Executes several tenant workloads on one shared virtual cluster,
/// round-robin by RLHF iteration in list order, and returns one
/// [`RunReport`] per tenant (same order as `tenants`).
///
/// See the module docs for the isolation and rebalancing semantics. The
/// `seed` parameter seeds every tenant's substream together with the
/// tenant's [`TenantRun::id`]; tenant configs' own `seed` fields are
/// ignored.
///
/// # Errors
///
/// Returns [`RunError::OutOfMemory`] when any tenant's initial plan does
/// not fit device memory (unless that tenant's config sets
/// `skip_mem_check`), and [`RunError::NoIterations`] when any tenant has
/// zero iterations. Candidate plans produced by elastic growth are
/// memory-checked during evaluation instead.
///
/// # Panics
///
/// Panics if `tenants` is empty or any plan references GPUs outside
/// `cluster`.
pub fn run_multi(
    cluster: &ClusterSpec,
    tenants: &[TenantRun],
    seed: u64,
) -> Result<Vec<RunReport>, RunError> {
    assert!(!tenants.is_empty(), "must admit at least one tenant");
    let n_gpus = cluster.total_gpus() as usize;
    let mut states: Vec<TenantState> = Vec::with_capacity(tenants.len());
    for t in tenants {
        let engine = RuntimeEngine::new(cluster.clone(), t.graph.clone(), t.config.clone());
        let rng = DeterministicRng::from_seed(seed)
            .derive("tenant")
            .derive_index(t.id)
            .derive("runtime");
        states.push(TenantState {
            driver: Driver::new(engine, &t.plan, t.iterations, rng)?,
            owned: t.allocation.clone(),
            totals_acc: vec![0.0; Category::ALL.len()],
            done: false,
            total_time: 0.0,
        });
    }

    let mut tl = Timelines::new(n_gpus);
    let max_iters = tenants
        .iter()
        .map(|t| t.iterations)
        .max()
        .expect("non-empty");
    // The pool last offered (and declined or absorbed); offers repeat only
    // when the free set changes, so gate rejections don't re-search every
    // round.
    let mut last_offered: Vec<GpuId> = Vec::new();

    for iter in 0..max_iters {
        for state in states.iter_mut() {
            if state.done {
                continue;
            }
            let before = busy_snapshot(&tl);
            state.driver.run_iteration(&mut tl, iter, 0.0, None);
            accumulate_busy(state, &tl, &before);
            if iter + 1 == state.driver.iterations() {
                state.done = true;
                state.total_time = state
                    .owned
                    .iter()
                    .map(|g| tl.gpu(g.0 as usize).busy_until())
                    .fold(0.0, f64::max);
            }
        }

        // Offer freed GPUs (owned by no running tenant) to the
        // highest-stretch surviving tenant that opted into elastic growth.
        loop {
            let mut free = vec![true; n_gpus];
            for state in states.iter().filter(|s| !s.done) {
                for g in &state.owned {
                    if let Some(slot) = free.get_mut(g.0 as usize) {
                        *slot = false;
                    }
                }
            }
            let pool: Vec<GpuId> = (0..n_gpus as u32)
                .map(GpuId)
                .filter(|g| free[g.0 as usize])
                .collect();
            if pool.is_empty() || pool == last_offered {
                break;
            }
            let target = states
                .iter()
                .zip(tenants)
                .enumerate()
                .filter(|(_, (s, t))| !s.done && t.elastic.is_some() && iter + 1 < t.iterations)
                .max_by(|(_, (a, ta)), (_, (b, tb))| {
                    a.stretch(ta, iter)
                        .partial_cmp(&b.stretch(tb, iter))
                        .expect("stretch values are finite")
                })
                .map(|(i, _)| i);
            last_offered = pool.clone();
            let Some(i) = target else {
                break;
            };
            // The offer goes through the re-plan gate over the meshes inside
            // the tenant's grown holdings; a rejection rolls back bit-exactly.
            let (t, state) = (&tenants[i], &mut states[i]);
            let el = t.elastic.as_ref().expect("offers go to elastic tenants");
            if state.driver.replan.switches >= el.policy.max_replans {
                break;
            }
            let mut grown: Vec<GpuId> = state.owned.iter().chain(&pool).copied().collect();
            grown.sort_unstable();
            grown.dedup();
            let meshes = partition::meshes_within_gpus(cluster, &grown);
            let space = SearchSpace::try_build_on(cluster, &t.graph, el.policy.prune, &meshes);
            let now = state.driver.iter_end[iter];
            let remaining = (t.iterations - (iter + 1)) as f64;
            let reason = ReplanReason::FreedCapacity {
                gpus: pool.len() as u32,
            };
            let before = busy_snapshot(&tl);
            let grew = state.driver.gate(
                &mut tl,
                space.ok(),
                &el.estimator,
                &el.policy,
                now,
                iter,
                remaining,
                reason,
                |n| {
                    DeterministicRng::from_seed(seed)
                        .derive("tenant")
                        .derive_index(t.id)
                        .derive("rebalance")
                        .derive_index(n)
                        .next_u64()
                },
            );
            accumulate_busy(state, &tl, &before);
            if !grew {
                break;
            }
            state.owned = grown;
            // Committed: the pool was absorbed; re-derive in case nothing
            // is left (loop exits on the empty pool).
        }
    }

    Ok(states
        .into_iter()
        .zip(tenants)
        .map(|(s, t)| {
            let busy: f64 = s.totals_acc.iter().sum();
            let totals = Category::ALL.iter().copied().zip(s.totals_acc).collect();
            let idle_total = (s.owned.len() as f64 * s.total_time - busy).max(0.0);
            s.driver
                .into_report(&t.plan, s.total_time, totals, idle_total)
        })
        .collect())
}

#[cfg(test)] // names the unit tests take via `super::*`
use real_dataflow::CallAssignment;

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::DeviceMesh;
    use real_dataflow::algo;
    use real_model::{ModelSpec, ParallelStrategy};

    fn ppo_graph(batch: u64) -> DataflowGraph {
        let actor = ModelSpec::llama3_7b();
        let critic = actor.critic();
        algo::ppo(&actor, &critic, &algo::RlhfConfig::instruct_gpt(batch))
    }

    fn tenant_on(
        cluster: &ClusterSpec,
        id: u64,
        node: u32,
        batch: u64,
        iterations: usize,
    ) -> TenantRun {
        let graph = ppo_graph(batch);
        let mesh = DeviceMesh::whole_nodes(cluster, node, 1).unwrap();
        let a = CallAssignment::new(mesh, ParallelStrategy::new(1, 8, 1, 4).unwrap()).unwrap();
        let plan = ExecutionPlan::new(&graph, cluster, vec![a; graph.n_calls()]).unwrap();
        TenantRun {
            id,
            name: format!("tenant{id}"),
            graph,
            plan,
            config: EngineConfig::deterministic(),
            iterations,
            allocation: mesh.gpus().collect(),
            solo_step_secs: 0.0,
            elastic: None,
        }
    }

    fn assert_reports_eq(a: &RunReport, b: &RunReport) {
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.iter_time, b.iter_time);
        assert_eq!(a.timings, b.timings);
        assert_eq!(a.category_totals, b.category_totals);
        assert_eq!(a.idle_total, b.idle_total);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.trace.events(), b.trace.events());
    }

    #[test]
    fn disjoint_cotenant_leaves_report_byte_identical_to_solo() {
        let cluster = ClusterSpec::h100(2);
        let t0 = tenant_on(&cluster, 0, 0, 64, 2);
        let t1 = tenant_on(&cluster, 1, 1, 32, 2);
        let solo = run_multi(&cluster, std::slice::from_ref(&t0), 7).unwrap();
        let both = run_multi(&cluster, &[t0, t1], 7).unwrap();
        assert_eq!(both.len(), 2);
        assert_reports_eq(&solo[0], &both[0]);
    }

    #[test]
    fn multi_tenant_runs_replay_bit_identically() {
        let cluster = ClusterSpec::h100(2);
        let tenants = vec![
            tenant_on(&cluster, 0, 0, 64, 2),
            tenant_on(&cluster, 1, 1, 32, 3),
        ];
        let a = run_multi(&cluster, &tenants, 11).unwrap();
        let b = run_multi(&cluster, &tenants, 11).unwrap();
        for (ra, rb) in a.iter().zip(&b) {
            assert_reports_eq(ra, rb);
        }
    }

    #[test]
    fn oversubscribed_tenants_time_share_without_deadlock() {
        let cluster = ClusterSpec::h100(1);
        // Both tenants on the same (only) node: the FIFO timelines
        // serialize their iterations.
        let t0 = tenant_on(&cluster, 0, 0, 32, 2);
        let t1 = tenant_on(&cluster, 1, 0, 32, 2);
        let solo_time = run_multi(&cluster, std::slice::from_ref(&t0), 3).unwrap()[0].total_time;
        let both = run_multi(&cluster, &[t0, t1], 3).unwrap();
        assert!(both.iter().all(|r| r.total_time > 0.0));
        // Shared hardware means each tenant finishes later than alone.
        assert!(both[0].total_time > solo_time);
        assert!(both[1].total_time > solo_time);
    }

    #[test]
    fn zero_iteration_tenant_is_rejected() {
        let cluster = ClusterSpec::h100(1);
        let mut t = tenant_on(&cluster, 0, 0, 32, 1);
        t.iterations = 0;
        assert_eq!(
            run_multi(&cluster, &[t], 1).unwrap_err(),
            RunError::NoIterations
        );
    }
}
