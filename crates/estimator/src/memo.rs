//! Memoized Algorithm-1 sub-results: the search-hot-path cache (§5.2).
//!
//! One MCMC proposal perturbs a single call's (mesh, strategy), yet the
//! naive pricing path re-assembled every call duration and re-scanned a
//! per-GPU array the size of the cluster. [`CostMemo`] caches each
//! sub-result under exactly the inputs its pricing function reads, and
//! [`PlanPricer`] re-prices a whole plan from cache hits plus the handful
//! of entries the perturbation actually changed:
//!
//! - a call duration under its [`Shape`] (the strategy and three
//!   within-node flags), times the health factor of its mesh, cached per
//!   mesh;
//! - a call's active and an anchor's static memory under its strategy;
//! - a speculative duration under its assignment, draft and configuration.
//!
//! Reallocation and transfer edges are not cached. Each reads a few
//! scalars of its two assignments and costs a few flops, less than a
//! lookup keyed by two assignments, and such a table held most of a
//! 1024-GPU search's heap.
//!
//! # Invalidation
//!
//! Cached prices bake in the estimator's health overlay (dead and slowed
//! GPUs scale call durations). The memo therefore carries the overlay's
//! [`fingerprint`](real_cluster::ClusterHealth::fingerprint); attaching the
//! memo to an estimator with a different fingerprint drops every entry and
//! counts one invalidation in [`MemoStats`]. Profiles, the communication
//! model, and the graph are fixed at estimator construction, so the health
//! overlay is the only input that can drift under a live cache.
//!
//! # Sharing
//!
//! A memo is keyed by call ids, so it may only be shared across estimators
//! with the same graph, profiles, and cluster — e.g. the scheduler's
//! per-(tenant, mesh) candidate probes, which all price one tenant's
//! experiment against nested mesh regions and therefore revisit the same
//! keys constantly.

use crate::algorithm1::Simulator;
use crate::assemble::Shape;
use crate::augment::{AugGraph, NodeCosts, Template};
use crate::maxmem::{self, PeakSweep};
use crate::{penalized, Estimator};
use real_cluster::DeviceMesh;
use real_dataflow::{CallAssignment, CallId, ExecutionPlan, SpecChoice};
use real_model::{MemoryModel, ParallelStrategy};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Hit/miss/invalidation counters of a [`CostMemo`], cheap to copy and
/// merge. Counters are cumulative over the memo's lifetime; callers that
/// want per-search numbers snapshot before and after and take
/// [`MemoStats::since`].
///
/// ```
/// use real_estimator::memo::MemoStats;
///
/// let a = MemoStats { hits: 8, misses: 2, invalidations: 0, entries: 2 };
/// let b = MemoStats { hits: 2, misses: 8, invalidations: 1, entries: 8 };
/// assert_eq!(a.hit_rate(), 0.8);
/// let merged = a.merged(b);
/// assert_eq!(merged.hits, 10);
/// assert_eq!(merged.misses, 10);
/// assert_eq!(merged.entries, 10);
/// assert_eq!(merged.hit_rate(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that had to compute (and then cached) the value.
    pub misses: u64,
    /// Times the whole cache was dropped by a health-overlay change.
    pub invalidations: u64,
    /// Entries currently resident across all tables.
    pub entries: u64,
}

impl MemoStats {
    /// Fraction of lookups served from cache, `0.0` when nothing was looked
    /// up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Sums counters of two snapshots (entry counts add: merging is for
    /// stats of *distinct* memos, e.g. one per parallel chain).
    pub fn merged(self, other: Self) -> Self {
        Self {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            invalidations: self.invalidations + other.invalidations,
            entries: self.entries + other.entries,
        }
    }

    /// Counter deltas accumulated after the `earlier` snapshot of the *same*
    /// memo. Entries reflect the current (later) residency.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            invalidations: self.invalidations - earlier.invalidations,
            entries: self.entries,
        }
    }
}

/// An Fx-style multiplicative hasher for the memo tables. The keys are
/// short tuples of small integers hashed on the search's innermost loop,
/// where the default SipHash's HashDoS resistance buys nothing (the keys
/// come from the search space, not from untrusted input) and costs more
/// than the table lookup itself.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

pub(crate) type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

/// The explicit cache of Algorithm-1 sub-results, each keyed by exactly
/// what its pricing function reads (see the module docs).
///
/// Every table stores outputs of pure pricing functions, so a hit is
/// bit-identical to recomputation — the property the search's
/// memo-on/memo-off equivalence tests pin down. Create one per
/// (graph, profiles, cluster) context and reuse it across every search and
/// admission probe in that context; see the module docs for the
/// invalidation rule.
#[derive(Debug, Clone, Default)]
pub struct CostMemo {
    /// [`Estimator::shape_duration`] per call and shape: one entry serves
    /// every mesh of one width and node span.
    durations: HashMap<(CallId, Shape), f64, FxBuild>,
    /// [`ClusterHealth::mesh_factor`](real_cluster::ClusterHealth::mesh_factor)
    /// per mesh, filled only under a health overlay.
    factors: HashMap<DeviceMesh, f64, FxBuild>,
    /// Memory checks read a call's strategy alone, so one entry serves
    /// every mesh of one shape.
    actives: HashMap<(CallId, ParallelStrategy), u64, FxBuild>,
    statics: HashMap<(CallId, ParallelStrategy), u64, FxBuild>,
    /// Speculative generation durations, keyed by the call, its (target)
    /// assignment, the draft's assignment, and the
    /// [`SpecDecodeConfig`](real_model::SpecDecodeConfig) fingerprint —
    /// everything [`Estimator::spec_call_duration`] depends on.
    spec_durations: HashMap<(CallId, CallAssignment, CallAssignment, u64), f64, FxBuild>,
    /// Health fingerprint the cached entries were priced under; `None`
    /// until first attached to an estimator.
    health_tag: Option<u64>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl CostMemo {
    /// An empty cache, not yet bound to any health overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current counters and residency.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            entries: (self.durations.len()
                + self.factors.len()
                + self.actives.len()
                + self.statics.len()
                + self.spec_durations.len()) as u64,
        }
    }

    /// Entries of the duration table alone: at most one per `(call,`
    /// [`Shape`]`)` priced since the last invalidation.
    pub fn duration_entries(&self) -> usize {
        self.durations.len()
    }

    /// Binds the cache to a health fingerprint, dropping all entries if it
    /// changed since the last bind (the health/fault-overlay invalidation
    /// rule). First bind of a fresh cache is free.
    pub fn sync_health(&mut self, tag: u64) {
        if self.health_tag == Some(tag) {
            return;
        }
        if self.health_tag.is_some() {
            self.invalidations += 1;
        }
        self.durations.clear();
        self.factors.clear();
        self.actives.clear();
        self.statics.clear();
        self.spec_durations.clear();
        self.health_tag = Some(tag);
    }

    /// [`Estimator::call_duration`], composed the same way from a cached
    /// shape duration and, under a health overlay, a cached mesh factor.
    fn duration(&mut self, est: &Estimator, call: CallId, a: &CallAssignment) -> f64 {
        let shape = Shape::of(a);
        let counts = (&mut self.hits, &mut self.misses);
        let d = cached(&mut self.durations, counts, (call, shape), || {
            est.shape_duration(call, &shape)
        });
        let Some(health) = est.health() else {
            return d;
        };
        let counts = (&mut self.hits, &mut self.misses);
        d * cached(&mut self.factors, counts, a.mesh, || {
            health.mesh_factor(&a.mesh)
        })
    }

    fn active_bytes(&mut self, est: &Estimator, call: CallId, s: &ParallelStrategy) -> u64 {
        let counts = (&mut self.hits, &mut self.misses);
        cached(&mut self.actives, counts, (call, *s), || {
            let def = est.graph().call(call);
            let mm = MemoryModel::new(def.model.clone());
            maxmem::call_active_bytes(&mm, def.call_type, s, false)
        })
    }

    fn static_bytes(&mut self, est: &Estimator, anchor: CallId, s: &ParallelStrategy) -> u64 {
        let counts = (&mut self.hits, &mut self.misses);
        cached(&mut self.statics, counts, (anchor, *s), || {
            maxmem::anchor_static_bytes(est.graph().call(anchor), s, false, false)
        })
    }

    fn spec_duration(
        &mut self,
        est: &Estimator,
        call: CallId,
        a: &CallAssignment,
        choice: &SpecChoice,
    ) -> f64 {
        let key = (call, *a, choice.assignment, choice.config.fingerprint());
        let counts = (&mut self.hits, &mut self.misses);
        cached(&mut self.spec_durations, counts, key, || {
            est.spec_call_duration(call, a, choice)
        })
    }
}

/// One memo-table lookup: the cached value on a hit, otherwise `compute`'s
/// result, cached. Counts the outcome in `(hits, misses)`.
fn cached<K: std::hash::Hash + Eq, V: Copy>(
    table: &mut HashMap<K, V, FxBuild>,
    (hits, misses): (&mut u64, &mut u64),
    key: K,
    compute: impl FnOnce() -> V,
) -> V {
    if let Some(&v) = table.get(&key) {
        *hits += 1;
        return v;
    }
    *misses += 1;
    let v = compute();
    table.insert(key, v);
    v
}

/// Memo-backed [`NodeCosts`] oracle for [`Template::instantiate`].
struct MemoCosts<'a, 'b> {
    est: &'a Estimator,
    memo: &'b mut CostMemo,
    weights: &'b mut HashMap<(CallId, ParallelStrategy), u64, FxBuild>,
}

impl NodeCosts for MemoCosts<'_, '_> {
    fn duration(&mut self, call: CallId, a: &CallAssignment) -> f64 {
        self.memo.duration(self.est, call, a)
    }

    fn spec_duration(&mut self, call: CallId, a: &CallAssignment, choice: &SpecChoice) -> f64 {
        self.memo.spec_duration(self.est, call, a, choice)
    }

    fn weight_bytes(&mut self, call: CallId, s: &ParallelStrategy) -> u64 {
        let est = self.est;
        *self
            .weights
            .entry((call, *s))
            .or_insert_with(|| { est }.weight_bytes(call, s))
    }
}

/// The incremental fast path over one estimator: a precomputed augmented
/// [`Template`] plus a [`CostMemo`], pricing plans — and one-call
/// perturbations of plans without cloning them — bit-identically to
/// [`Estimator::cost_checked`] and friends.
///
/// The peak-memory check additionally swaps the `O(total_gpus)` per-GPU
/// scan for an exact interval sweep over the plan's (at most a few dozen)
/// mesh contributions, which is what makes per-proposal pricing flat in
/// cluster size. The pricer owns every buffer a query needs — the
/// augmented graph, Algorithm 1's state, the sweep and the bound's
/// durations — so once the memo is warm a query allocates nothing.
///
/// ```
/// use real_cluster::{ClusterSpec, DeviceMesh};
/// use real_dataflow::{algo, CallAssignment, ExecutionPlan};
/// use real_estimator::{Estimator, PlanPricer};
/// use real_model::{ModelSpec, ParallelStrategy};
/// use real_profiler::{ProfileConfig, Profiler};
///
/// let cluster = ClusterSpec::h100(1);
/// let actor = ModelSpec::llama3_7b();
/// let critic = actor.critic();
/// let graph = algo::ppo(&actor, &critic, &algo::RlhfConfig::instruct_gpt(64));
/// let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 1);
/// let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
/// let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
///
/// let a = CallAssignment::new(
///     DeviceMesh::full(&cluster),
///     ParallelStrategy::new(1, 8, 1, 4).unwrap(),
/// ).unwrap();
/// let plan = ExecutionPlan::new(&graph, &cluster, vec![a; graph.n_calls()]).unwrap();
///
/// let mut pricer = PlanPricer::new(&est);
/// // Bit-identical to the plain estimator, hot or cold.
/// assert_eq!(pricer.cost_checked(&plan), est.cost_checked(&plan));
/// assert_eq!(pricer.cost_checked(&plan), est.cost_checked(&plan));
/// assert!(pricer.memo_stats().hits > 0);
/// ```
pub struct PlanPricer<'a> {
    est: &'a Estimator,
    template: Template,
    anchors: Vec<CallId>,
    memo: CostMemo,
    work: Workspace,
}

/// The buffers every [`PlanPricer`] query reuses.
#[derive(Debug, Default)]
struct Workspace {
    /// The augmented graph of the plan being priced.
    graph: AugGraph,
    /// Algorithm 1's state.
    sim: Simulator,
    /// Per-call node durations for the critical-path bound.
    durations: Vec<f64>,
    /// The bound's per-call end times.
    ends: Vec<f64>,
    /// The peak-memory interval sweep.
    peak: PeakSweep,
    /// Draft residency per (call, draft assignment, speculation-config
    /// fingerprint), and reallocation payloads per (call, strategy): pure
    /// in their keys, and kept here because computing them builds a memory
    /// model.
    drafts: HashMap<(CallId, CallAssignment, u64), u64, FxBuild>,
    weights: HashMap<(CallId, ParallelStrategy), u64, FxBuild>,
}

impl<'a> PlanPricer<'a> {
    /// A pricer with a fresh cache.
    pub fn new(est: &'a Estimator) -> Self {
        Self::with_memo(est, CostMemo::new())
    }

    /// A pricer reusing an existing cache (e.g. shared across a scheduler's
    /// candidate probes). The memo is re-bound to `est`'s health
    /// fingerprint, dropping its entries if the overlay changed.
    pub fn with_memo(est: &'a Estimator, mut memo: CostMemo) -> Self {
        memo.sync_health(est.health_fingerprint());
        Self {
            est,
            template: Template::new(est),
            anchors: maxmem::static_anchors(est.graph()),
            memo,
            work: Workspace::default(),
        }
    }

    /// The backing estimator.
    pub fn estimator(&self) -> &'a Estimator {
        self.est
    }

    /// Counters and residency of the cache.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Releases the cache for reuse by a later pricer.
    pub fn into_memo(self) -> CostMemo {
        self.memo
    }

    fn time_cost_at<F>(&mut self, plan: &ExecutionPlan, assign: F) -> f64
    where
        F: Fn(CallId) -> CallAssignment,
    {
        let mut costs = MemoCosts {
            est: self.est,
            memo: &mut self.memo,
            weights: &mut self.work.weights,
        };
        let graph = &mut self.work.graph;
        self.template
            .instantiate(self.est, plan, assign, &mut costs, graph);
        self.work.sim.makespan(graph) / self.est.iterations() as f64
    }

    fn max_mem_at<F>(&mut self, plan: &ExecutionPlan, assign: F) -> u64
    where
        F: Fn(CallId) -> CallAssignment,
    {
        let graph = self.est.graph();
        let peak = &mut self.work.peak;
        peak.clear();
        for &anchor in &self.anchors {
            let a = assign(anchor);
            let bytes = self.memo.static_bytes(self.est, anchor, &a.strategy);
            peak.add_static(&a.mesh, bytes);
        }
        // Draft residency sums like static memory (see `maxmem::max_mem`).
        for (id, choice) in plan.spec_choices() {
            let key = (id, choice.assignment, choice.config.fingerprint());
            let bytes = *self.work.drafts.entry(key).or_insert_with(|| {
                crate::spec::draft_active_bytes(&graph.call(id).call_type, choice)
            });
            peak.add_static(&choice.assignment.mesh, bytes);
        }
        for id in 0..graph.n_calls() {
            let id = CallId(id);
            let a = assign(id);
            let bytes = self.memo.active_bytes(self.est, id, &a.strategy);
            peak.add_active(&a.mesh, bytes);
        }
        peak.peak()
    }

    /// `TimeCost` of the plan; bit-identical to [`Estimator::time_cost`].
    pub fn time_cost(&mut self, plan: &ExecutionPlan) -> f64 {
        self.time_cost_at(plan, |id| *plan.assignment(id))
    }

    /// `MaxMem` of the plan; bit-identical to [`Estimator::max_mem`].
    pub fn max_mem(&mut self, plan: &ExecutionPlan) -> u64 {
        self.max_mem_at(plan, |id| *plan.assignment(id))
    }

    /// Whether the plan fits device memory.
    pub fn mem_ok(&mut self, plan: &ExecutionPlan) -> bool {
        self.max_mem(plan) <= self.est.cluster().gpu.mem_capacity
    }

    /// [`PlanPricer::mem_ok`] of `plan` with `call` reassigned to `a`,
    /// without materializing the perturbed plan: the memory half of
    /// [`PlanPricer::cost_checked_perturbed`], so a search can tell that a
    /// candidate pays the OOM penalty without running Algorithm 1.
    pub fn mem_ok_perturbed(
        &mut self,
        plan: &ExecutionPlan,
        call: CallId,
        a: CallAssignment,
    ) -> bool {
        let peak = self.max_mem_at(plan, |id| if id == call { a } else { *plan.assignment(id) });
        peak <= self.est.cluster().gpu.mem_capacity
    }

    /// [`PlanPricer::time_cost`] of `plan` with `call` reassigned to `a`,
    /// without materializing the perturbed plan: the time half of
    /// [`PlanPricer::cost_checked_perturbed`].
    pub fn time_cost_perturbed(
        &mut self,
        plan: &ExecutionPlan,
        call: CallId,
        a: CallAssignment,
    ) -> f64 {
        self.time_cost_at(plan, |id| if id == call { a } else { *plan.assignment(id) })
    }

    /// The §5.2 search cost; bit-identical to [`Estimator::cost`].
    pub fn cost(&mut self, plan: &ExecutionPlan) -> f64 {
        self.cost_checked(plan).0
    }

    /// The §5.2 search cost plus whether the OOM penalty applied;
    /// bit-identical to [`Estimator::cost_checked`].
    pub fn cost_checked(&mut self, plan: &ExecutionPlan) -> (f64, bool) {
        let t = self.time_cost(plan);
        penalized(t, self.mem_ok(plan))
    }

    /// [`PlanPricer::cost_checked`] of `plan` with `call` reassigned to `a`,
    /// without materializing the perturbed plan — the MCMC proposal shape.
    /// The plan's speculation choices ride along unchanged. Bit-identical to
    /// pricing `plan.with_assignment(call, a)`.
    pub fn cost_checked_perturbed(
        &mut self,
        plan: &ExecutionPlan,
        call: CallId,
        a: CallAssignment,
    ) -> (f64, bool) {
        let t = self.time_cost_perturbed(plan, call, a);
        penalized(t, self.mem_ok_perturbed(plan, call, a))
    }

    /// A lower bound on [`PlanPricer::cost_checked_perturbed`] of the same
    /// arguments that reads only call durations through the memo (the
    /// speculation-aware duration where `plan` has a
    /// [`SpecChoice`]): the [`Template::critical_path_bound`] of the
    /// perturbed plan. Never above the perturbed plan's `TimeCost` or
    /// penalized cost, bit-for-bit, so a search may skip any candidate whose
    /// bound already reaches the cost it must beat.
    pub fn cost_lower_bound_perturbed(
        &mut self,
        plan: &ExecutionPlan,
        call: CallId,
        a: CallAssignment,
    ) -> f64 {
        self.fill_durations(plan, |id| if id == call { a } else { *plan.assignment(id) });
        let work = &mut self.work;
        self.template
            .critical_path_bound_in(self.est.graph(), &work.durations, &mut work.ends)
    }

    /// Fills the workspace's per-call durations with every call's node
    /// duration under `assign`, read through the memo: the
    /// speculation-aware duration where `plan` has a [`SpecChoice`] for the
    /// call, the plain one otherwise.
    fn fill_durations<F>(&mut self, plan: &ExecutionPlan, assign: F)
    where
        F: Fn(CallId) -> CallAssignment,
    {
        let mut costs = MemoCosts {
            est: self.est,
            memo: &mut self.memo,
            weights: &mut self.work.weights,
        };
        let durations = &mut self.work.durations;
        durations.clear();
        for id in (0..self.est.graph().n_calls()).map(CallId) {
            durations.push(costs.call_node(plan, id, &assign(id)));
        }
    }

    /// The polish's two pruning thresholds for `call` in `plan` against
    /// `target`, `(d*, d*_α)`:
    ///
    /// - `d*` is the least call-node duration at which
    ///   [`PlanPricer::cost_lower_bound_perturbed`] of `plan` with `call`
    ///   reassigned reaches `target`: every `a` under which `call`'s node
    ///   takes `>= d*` ([`NodeCosts::call_node`]) has a bound `>= target`,
    ///   and every `a` below it has a bound `< target`;
    /// - `d*_α <= d*` is the same for the penalized bound `fl(bound · α)`,
    ///   α = [`OOM_PENALTY`](crate::OOM_PENALTY). A candidate that does not
    ///   fit device memory costs `fl(TimeCost · α) >= fl(bound · α)`, so
    ///   every such candidate at or above `d*_α` costs `>= target`.
    ///
    /// Exact, with no epsilon: the bound is monotone non-decreasing in one
    /// call's duration in floating point (`fl(+)`, `max`, `fl(x / K)` and
    /// `fl(x · α)` are), so each threshold is found by bisection over the
    /// bit patterns of the non-negative `f64`s — about 64 bound evaluations,
    /// after which each candidate costs one duration read and one
    /// comparison. `+∞` when no finite duration reaches `target`.
    pub fn lower_bound_thresholds(
        &mut self,
        plan: &ExecutionPlan,
        call: CallId,
        target: f64,
    ) -> (f64, f64) {
        self.fill_durations(plan, |id| *plan.assignment(id));
        let graph = self.est.graph();
        let (template, work) = (&self.template, &mut self.work);
        let mut least = |scale: f64| {
            let mut reaches = |bits: u64| {
                work.durations[call.0] = f64::from_bits(bits);
                template.critical_path_bound_in(graph, &work.durations, &mut work.ends) * scale
                    >= target
            };
            // Non-negative f64s order like their bit patterns. Invariant:
            // the bound at `lo` misses `target`, the bound at `hi` does not
            // (at `+∞` the bound is `+∞`).
            let (mut lo, mut hi) = (0u64, f64::INFINITY.to_bits());
            if reaches(lo) {
                return 0.0;
            }
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if reaches(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            f64::from_bits(hi)
        };
        // `fl(b · 1) = b`: the plain threshold is the same search.
        (least(1.0), least(crate::OOM_PENALTY))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::{ClusterHealth, ClusterSpec, DeviceMesh, GpuId};
    use real_dataflow::{algo, DataflowGraph};
    use real_model::{ModelSpec, ParallelStrategy};
    use real_profiler::{ProfileConfig, Profiler};
    use std::sync::OnceLock;

    fn setup() -> &'static (ClusterSpec, DataflowGraph, Estimator) {
        static CTX: OnceLock<(ClusterSpec, DataflowGraph, Estimator)> = OnceLock::new();
        CTX.get_or_init(|| {
            let cluster = ClusterSpec::h100(2);
            let actor = ModelSpec::llama3_7b();
            let critic = actor.critic();
            let graph = algo::ppo(&actor, &critic, &algo::RlhfConfig::instruct_gpt(64));
            let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 5);
            let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
            let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
            (cluster, graph, est)
        })
    }

    /// Every `(mesh, strategy)` option a random plan can draw from.
    fn options(cluster: &ClusterSpec) -> Vec<CallAssignment> {
        let mut out = Vec::new();
        for mesh in DeviceMesh::enumerate(cluster) {
            for s in ParallelStrategy::enumerate(mesh.n_gpus(), 8, 8, &[1, 2, 4]) {
                out.push(CallAssignment::new(mesh, s).unwrap());
            }
        }
        out
    }

    fn plan_from(picks: &[usize]) -> ExecutionPlan {
        let (cluster, graph, _) = setup();
        let opts = options(cluster);
        let assignments: Vec<CallAssignment> =
            picks.iter().map(|&p| opts[p % opts.len()]).collect();
        ExecutionPlan::new(graph, cluster, assignments).unwrap()
    }

    #[test]
    fn memo_agrees_with_estimator_on_repeated_queries() {
        let (_, _, est) = setup();
        let plan = plan_from(&[0; 6]);
        let mut pricer = PlanPricer::new(est);
        for _ in 0..3 {
            assert_eq!(pricer.cost_checked(&plan), est.cost_checked(&plan));
            assert_eq!(
                pricer.time_cost(&plan).to_bits(),
                est.time_cost(&plan).to_bits()
            );
            assert_eq!(pricer.max_mem(&plan), est.max_mem(&plan));
        }
        let stats = pricer.memo_stats();
        assert!(stats.hits > 0, "repeat queries must hit: {stats:?}");
        assert!(stats.entries > 0);
    }

    #[test]
    fn perturbed_pricing_matches_materialized_plan() {
        let (cluster, graph, est) = setup();
        let plan = plan_from(&[1, 9, 17, 33, 65, 129]);
        let opts = options(cluster);
        let mut pricer = PlanPricer::new(est);
        for call in 0..graph.n_calls() {
            let a = opts[(call * 37 + 5) % opts.len()];
            let materialized = plan.with_assignment(CallId(call), a).unwrap();
            assert_eq!(
                pricer.cost_checked_perturbed(&plan, CallId(call), a),
                est.cost_checked(&materialized),
            );
        }
    }

    #[test]
    fn a_price_looks_up_each_sub_result_once() {
        // PPO at two unrolled iterations: 6 call durations, however many
        // iterations read them, and under a health overlay 6 mesh factors.
        // The 11 data dependencies and 6 parameter edges are priced
        // without the memo.
        let (cluster, graph, est) = setup();
        let deps: usize = (0..graph.n_calls())
            .map(|c| graph.deps(CallId(c)).len())
            .sum();
        assert_eq!(deps, 11);
        let plan = plan_from(&[1, 9, 17, 33, 65, 129]);
        let mut health = ClusterHealth::healthy(cluster);
        health.mark_slow(GpuId(3), 2.0);
        let degraded = est.clone().with_health(health);
        for (est, lookups) in [(est, 6), (&degraded, 12)] {
            let mut pricer = PlanPricer::new(est);
            pricer.time_cost(&plan);
            let before = pricer.memo_stats();
            pricer.time_cost(&plan);
            let after = pricer.memo_stats().since(before);
            assert_eq!((after.hits, after.misses), (lookups, 0));
        }
    }

    #[test]
    fn memory_checks_share_one_entry_across_meshes_of_one_strategy() {
        let (cluster, graph, est) = setup();
        let strategy = ParallelStrategy::new(1, 8, 1, 4).unwrap();
        let on_node = |node| {
            let mesh = DeviceMesh::whole_nodes(cluster, node, 1).unwrap();
            let a = CallAssignment::new(mesh, strategy).unwrap();
            ExecutionPlan::new(graph, cluster, vec![a; graph.n_calls()]).unwrap()
        };
        let mut pricer = PlanPricer::new(est);
        let peak = pricer.max_mem(&on_node(0));
        let before = pricer.memo_stats();
        assert_eq!(pricer.max_mem(&on_node(1)), peak);
        let moved = pricer.memo_stats().since(before);
        assert_eq!(moved.misses, 0, "node 1 reuses node 0's entries");
        assert_eq!(moved.entries, before.entries);
    }

    /// `mesh` moved to the other node of the two-node cluster, when it
    /// sits on one node: the same shape on other GPUs.
    fn twin(cluster: &ClusterSpec, mesh: &DeviceMesh) -> Option<DeviceMesh> {
        let node = 1 - mesh.node_start();
        match (mesh.n_nodes(), mesh.gpu_width()) {
            (1, w) if w == cluster.gpus_per_node => DeviceMesh::whole_nodes(cluster, node, 1).ok(),
            (1, w) => DeviceMesh::sub_node(cluster, node, mesh.gpu_start(), w).ok(),
            _ => None,
        }
    }

    #[test]
    fn meshes_of_one_shape_share_a_duration_entry_but_not_their_health() {
        let (cluster, graph, est) = setup();
        let strategy = ParallelStrategy::new(1, 4, 1, 4).unwrap();
        let on = |mesh| {
            let a = CallAssignment::new(mesh, strategy).unwrap();
            ExecutionPlan::new(graph, cluster, vec![a; graph.n_calls()]).unwrap()
        };
        let fast = DeviceMesh::sub_node(cluster, 0, 4, 4).unwrap();
        let slow = twin(cluster, &fast).unwrap();
        let mut health = ClusterHealth::healthy(cluster);
        health.mark_slow(GpuId(slow.gpus().next().unwrap().0 + 1), 1.5);
        let degraded = est.clone().with_health(health);
        let mut pricer = PlanPricer::new(&degraded);
        let cost = pricer.time_cost(&on(fast));
        assert_eq!(cost.to_bits(), degraded.time_cost(&on(fast)).to_bits());
        let durations = pricer.memo.duration_entries();
        assert_eq!(durations, graph.n_calls());
        let slowed = pricer.time_cost(&on(slow));
        assert_eq!(slowed.to_bits(), degraded.time_cost(&on(slow)).to_bits());
        assert!(slowed > cost, "the slow GPU must show: {slowed} vs {cost}");
        assert_eq!(pricer.memo.duration_entries(), durations, "one shape");
        assert_eq!(pricer.memo.factors.len(), 2, "one factor per mesh");
    }

    #[test]
    fn health_change_invalidates_the_cache() {
        let (cluster, _, est) = setup();
        let plan = plan_from(&[0; 6]);
        let mut memo = CostMemo::new();
        let mut pricer = PlanPricer::with_memo(est, memo);
        pricer.cost_checked(&plan);
        memo = pricer.into_memo();
        assert!(memo.stats().entries > 0);

        let mut health = ClusterHealth::healthy(cluster);
        health.mark_slow(GpuId(0), 2.0);
        let degraded = est.clone().with_health(health);
        let pricer = PlanPricer::with_memo(&degraded, memo);
        let stats = pricer.memo_stats();
        assert_eq!(stats.entries, 0, "health change must drop entries");
        assert_eq!(stats.invalidations, 1);

        // Same overlay again: no further invalidation.
        let memo = pricer.into_memo();
        let pricer = PlanPricer::with_memo(&degraded, memo);
        assert_eq!(pricer.memo_stats().invalidations, 1);
    }

    #[test]
    fn degraded_estimator_prices_correctly_through_the_memo() {
        let (cluster, _, est) = setup();
        let plan = plan_from(&[0; 6]);
        let mut health = ClusterHealth::healthy(cluster);
        // Plan `[0; 6]` sits on the first enumerated mesh, which contains
        // GPU 0 — slowing it must change the price.
        health.mark_slow(GpuId(0), 3.0);
        let degraded = est.clone().with_health(health);
        let mut pricer = PlanPricer::new(&degraded);
        assert_eq!(pricer.cost_checked(&plan), degraded.cost_checked(&plan));
        assert_ne!(
            pricer.cost(&plan).to_bits(),
            est.cost(&plan).to_bits(),
            "slowdown must change the price"
        );
    }

    fn spec_plan(plan: &ExecutionPlan) -> ExecutionPlan {
        let (cluster, graph, _) = setup();
        let choice = SpecChoice {
            config: real_model::SpecDecodeConfig {
                draft_model: real_model::ModelSpec::llama3_1b(),
                speculation_len: 4,
                acceptance_curve: real_model::AcceptanceCurve::Constant(0.8),
            },
            assignment: CallAssignment::new(
                DeviceMesh::sub_node(cluster, 0, 0, 2).unwrap(),
                ParallelStrategy::new(1, 2, 1, 1).unwrap(),
            )
            .unwrap(),
        };
        plan.with_spec(graph.find("actor_gen").unwrap(), Some(choice))
            .unwrap()
    }

    #[test]
    fn speculative_plans_price_bit_identically_through_the_memo() {
        let (_, _, est) = setup();
        let plan = spec_plan(&plan_from(&[1, 9, 17, 33, 65, 129]));
        assert!(plan.has_speculation());
        let mut pricer = PlanPricer::new(est);
        for _ in 0..2 {
            let fast = pricer.cost_checked(&plan);
            let slow = est.cost_checked(&plan);
            assert_eq!(fast.0.to_bits(), slow.0.to_bits());
            assert_eq!(fast.1, slow.1);
            assert_eq!(pricer.max_mem(&plan), est.max_mem(&plan));
        }
        assert!(pricer.memo_stats().hits > 0);
    }

    #[test]
    fn spec_perturbed_pricing_matches_materialized_plan() {
        let (cluster, _, est) = setup();
        let plan = spec_plan(&plan_from(&[1, 9, 17, 33, 65, 129]));
        let opts = options(cluster);
        let mut pricer = PlanPricer::new(est);
        for call in 0..6 {
            let a = opts[(call * 41 + 3) % opts.len()];
            let materialized = plan.with_assignment(CallId(call), a).unwrap();
            assert_eq!(
                pricer.cost_checked_perturbed(&plan, CallId(call), a),
                est.cost_checked(&materialized),
            );
        }
    }

    /// The estimator of [`setup`] pricing synchronously for a `staleness`
    /// draw of 0, and async at staleness `draw - 1` otherwise.
    fn with_staleness_draw(est: &Estimator, draw: u32) -> Estimator {
        match draw {
            0 => est.clone(),
            s => est.clone().with_staleness(s - 1),
        }
    }

    proptest::proptest! {
        /// Memoized prices equal from-scratch prices bit for bit under a
        /// health overlay with a dead and a slowed GPU: the plan's
        /// `TimeCost`, memory verdict and cost, cold and warm, and for
        /// one-call perturbations the same three plus the lower bound. The
        /// perturbations include the call's own shape moved to the other
        /// node, whose health differs, so one duration entry serves meshes
        /// with different factors.
        #[test]
        fn memoized_pricing_matches_from_scratch_under_dead_and_slow_gpus(
            picks in proptest::collection::vec(0usize..10_000, 6),
            perturb in 0usize..6,
            alts in proptest::collection::vec(0usize..10_000, 3),
            dead in 0u32..16,
            slow in 0u32..16,
            factor in 1.0..4.0f64,
            staleness in 0u32..3,
        ) {
            let (cluster, graph, est) = setup();
            let mut health = ClusterHealth::healthy(cluster);
            health.mark_dead(GpuId(dead));
            health.mark_slow(GpuId(slow), factor);
            let est = &with_staleness_draw(est, staleness).with_health(health);
            let plan = plan_from(&picks);
            let mut pricer = PlanPricer::new(est);
            for _ in 0..2 {
                let want = est.cost_checked(&plan);
                let got = pricer.cost_checked(&plan);
                proptest::prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
                proptest::prop_assert_eq!(got.1, want.1);
                proptest::prop_assert_eq!(pricer.time_cost(&plan).to_bits(), est.time_cost(&plan).to_bits());
                proptest::prop_assert_eq!(pricer.mem_ok(&plan), est.mem_ok(&plan));
            }
            let call = CallId(perturb);
            let own = *plan.assignment(call);
            let opts = options(cluster);
            let moved = twin(cluster, &own.mesh).map(|m| CallAssignment::new(m, own.strategy).unwrap());
            let template = Template::new(est);
            for a in alts.iter().map(|i| opts[i % opts.len()]).chain(moved) {
                let perturbed = plan.with_assignment(call, a).unwrap();
                let want = est.cost_checked(&perturbed);
                let got = pricer.cost_checked_perturbed(&plan, call, a);
                proptest::prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
                proptest::prop_assert_eq!(got.1, want.1);
                proptest::prop_assert_eq!(
                    pricer.time_cost_perturbed(&plan, call, a).to_bits(),
                    est.time_cost(&perturbed).to_bits()
                );
                proptest::prop_assert_eq!(pricer.mem_ok_perturbed(&plan, call, a), est.mem_ok(&perturbed));
                let durations: Vec<f64> = (0..graph.n_calls())
                    .map(|id| { est }.call_node(&perturbed, CallId(id), perturbed.assignment(CallId(id))))
                    .collect();
                proptest::prop_assert_eq!(
                    pricer.cost_lower_bound_perturbed(&plan, call, a).to_bits(),
                    template.critical_path_bound(graph, &durations).to_bits()
                );
            }
        }

        /// The headline contract: memoized and unmemoized pricing agree
        /// bit-for-bit on random plans, cold cache and warm, synchronous
        /// and async.
        #[test]
        fn memoized_pricing_is_bit_identical_on_random_plans(
            picks in proptest::collection::vec(0usize..10_000, 6),
            perturb in 0usize..6,
            alt in 0usize..10_000,
            staleness in 0u32..4,
        ) {
            let (cluster, _, est) = setup();
            let est = &with_staleness_draw(est, staleness);
            let plan = plan_from(&picks);
            let mut pricer = PlanPricer::new(est);
            // Cold.
            let fast = pricer.cost_checked(&plan);
            let slow = est.cost_checked(&plan);
            proptest::prop_assert_eq!(fast.0.to_bits(), slow.0.to_bits());
            proptest::prop_assert_eq!(fast.1, slow.1);
            proptest::prop_assert_eq!(pricer.max_mem(&plan), est.max_mem(&plan));
            // Warm + perturbed.
            let opts = options(cluster);
            let a = opts[alt % opts.len()];
            let call = CallId(perturb);
            let fast = pricer.cost_checked_perturbed(&plan, call, a);
            let slow = est.cost_checked(&plan.with_assignment(call, a).unwrap());
            proptest::prop_assert_eq!(fast.0.to_bits(), slow.0.to_bits());
            proptest::prop_assert_eq!(fast.1, slow.1);
        }

        /// The polish's pruning contract: the critical-path bound never
        /// exceeds the penalized cost or the `TimeCost` it stands in for —
        /// plain `<=` on `f64`, no epsilon — on plain and speculative plans,
        /// under a slowed GPU, at one to three unrolled iterations, under
        /// staleness none, 0, 1 or 2; and on a
        /// perturbation that does not fit, the penalized bound
        /// `fl(bound · α)` never exceeds its penalized cost, while the
        /// perturbed memory check agrees with the estimator's.
        #[test]
        fn critical_path_bound_never_exceeds_the_cost(
            picks in proptest::collection::vec(0usize..10_000, 6),
            perturb in 0usize..6,
            alt in 0usize..10_000,
            iterations in 1usize..4,
            speculative in 0u8..2,
            slow_gpu in 0u32..32,
            staleness in 0u32..4,
        ) {
            let (cluster, _, est) = setup();
            let mut est = with_staleness_draw(&est.clone().with_iterations(iterations), staleness);
            // Half the draws slow one GPU of the 16-GPU cluster.
            if slow_gpu < cluster.total_gpus() {
                let mut health = ClusterHealth::healthy(cluster);
                health.mark_slow(GpuId(slow_gpu), 2.5);
                est = est.with_health(health);
            }
            let mut plan = plan_from(&picks);
            if speculative == 1 {
                plan = spec_plan(&plan);
            }
            let mut pricer = PlanPricer::new(&est);
            let call = CallId(perturb);
            let own = *plan.assignment(call);
            let bound = pricer.cost_lower_bound_perturbed(&plan, call, own);
            proptest::prop_assert!(bound > 0.0);
            proptest::prop_assert!(bound <= pricer.cost_checked(&plan).0);
            proptest::prop_assert!(bound <= est.time_cost(&plan));

            let opts = options(cluster);
            let a = opts[alt % opts.len()];
            let bound = pricer.cost_lower_bound_perturbed(&plan, call, a);
            let (cost, oom) = pricer.cost_checked_perturbed(&plan, call, a);
            proptest::prop_assert!(bound <= cost);
            let perturbed = plan.with_assignment(call, a).unwrap();
            proptest::prop_assert!(bound <= est.cost_checked(&perturbed).0);
            proptest::prop_assert!(bound <= est.time_cost(&perturbed));
            proptest::prop_assert_eq!(pricer.mem_ok_perturbed(&plan, call, a), est.mem_ok(&perturbed));
            proptest::prop_assert_eq!(oom, !est.mem_ok(&perturbed));
            if oom {
                proptest::prop_assert!(bound * crate::OOM_PENALTY <= cost);
            }
        }

        /// The polish's thresholds decide exactly as the full bound: a
        /// candidate's duration reaches `d*` iff its bound reaches the
        /// target, and reaches `d*_α` iff its penalized bound `fl(bound · α)`
        /// does, for targets around the plan's own (possibly penalized)
        /// cost and at the thresholds themselves, synchronous and async.
        #[test]
        fn lower_bound_threshold_decides_exactly_as_the_bound(
            picks in proptest::collection::vec(0usize..10_000, 6),
            perturb in 0usize..6,
            alts in proptest::collection::vec(0usize..10_000, 8),
            scale in 0.25..1.5f64,
            speculative in 0u8..2,
            staleness in 0u32..4,
        ) {
            let (cluster, _, est) = setup();
            let est = &with_staleness_draw(est, staleness);
            let mut plan = plan_from(&picks);
            if speculative == 1 {
                plan = spec_plan(&plan);
            }
            let mut pricer = PlanPricer::new(est);
            let call = CallId(perturb);
            let target = pricer.cost(&plan) * scale;
            let (d_star, d_star_oom) = pricer.lower_bound_thresholds(&plan, call, target);
            proptest::prop_assert!(d_star_oom <= d_star);
            let opts = options(cluster);
            for alt in &alts {
                let a = opts[alt % opts.len()];
                let d = { est }.call_node(&plan, call, &a);
                let bound = pricer.cost_lower_bound_perturbed(&plan, call, a);
                proptest::prop_assert_eq!(d >= d_star, bound >= target);
                proptest::prop_assert_eq!(d >= d_star_oom, bound * crate::OOM_PENALTY >= target);
            }
            // Each threshold is the least duration that reaches the target.
            pricer.fill_durations(&plan, |id| *plan.assignment(id));
            let own = pricer.work.durations.clone();
            let bound_at = |d: f64| {
                let mut durations = own.clone();
                durations[call.0] = d;
                pricer.template.critical_path_bound(est.graph(), &durations)
            };
            for (threshold, alpha) in [(d_star, 1.0), (d_star_oom, crate::OOM_PENALTY)] {
                proptest::prop_assert!(bound_at(threshold) * alpha >= target);
                if threshold > 0.0 {
                    let below = f64::from_bits(threshold.to_bits() - 1);
                    proptest::prop_assert!(bound_at(below) * alpha < target);
                }
            }
        }
    }
}
