//! Speculation-aware plan search: makes draft/verify decode a searchable
//! plan dimension on top of the assignment MCMC.
//!
//! The chain here proposes four move kinds — re-draw a call's assignment
//! (the classic move), **toggle** speculation on a generation call, **re-draw
//! the draft/`k`** from the menu, and **move the draft mesh** — and prices
//! every proposal through the shared [`PlanPricer`] memo, so only the touched
//! generation call is re-priced. A deterministic greedy polish then sweeps
//! every `(draft, k, placement)` option per generation call and *strips any
//! speculation choice that does not strictly beat plain decode*: at low
//! acceptance the final plan is guaranteed non-speculative, because a
//! speculative option is only kept when it strictly lowers the plan cost.
//!
//! The speculation chain continues on the base search's [`CostMemo`]. With
//! an empty menu it proposes nothing, so the result is exactly the base
//! search's plan.

use crate::mcmc::{self, McmcConfig, SearchResult};
use crate::space::SearchSpace;
use real_cluster::{ClusterSpec, DeviceMesh};
use real_dataflow::{CallAssignment, CallId, CallType, ExecutionPlan, SpecChoice};
use real_estimator::{CostMemo, Estimator, MemoStats, PlanPricer};
use real_model::specdec::{AcceptanceCurve, SpecDecodeConfig};
use real_model::{ModelSpec, ParallelStrategy};
use real_profiler::{calibrated_acceptance, SpecTask};
use real_util::DeterministicRng;
use std::time::Instant;

/// Cap on the draft mesh width: drafts are small, so they never need more
/// than one node — this keeps the speculation menu compact.
const MAX_DRAFT_GPUS: u32 = 8;

/// The discrete menu of speculation choices the search may attach to a
/// generation call: candidate draft models, speculation lengths, and draft
/// placements (single-node meshes with TP-only strategies — drafts are too
/// small to pipeline). Acceptance curves come from the profiler grid's
/// calibrated fixtures per `(draft, target, task)` unless overridden with an
/// explicit curve.
#[derive(Debug, Clone)]
pub struct SpecMenu {
    drafts: Vec<ModelSpec>,
    ks: Vec<u32>,
    task: SpecTask,
    curve: Option<AcceptanceCurve>,
    placements: Vec<CallAssignment>,
}

impl SpecMenu {
    /// Builds the menu: draft placements are every single-node mesh of the
    /// cluster (up to `MAX_DRAFT_GPUS` wide) with TP-only strategies.
    pub fn build(
        cluster: &ClusterSpec,
        drafts: Vec<ModelSpec>,
        ks: Vec<u32>,
        task: SpecTask,
    ) -> Self {
        let mut placements = Vec::new();
        for mesh in DeviceMesh::enumerate(cluster) {
            if mesh.n_nodes() != 1 || mesh.n_gpus() > MAX_DRAFT_GPUS {
                continue;
            }
            for s in ParallelStrategy::enumerate(mesh.n_gpus(), mesh.n_gpus(), 1, &[1]) {
                if let Ok(a) = CallAssignment::new(mesh, s) {
                    placements.push(a);
                }
            }
        }
        Self {
            drafts,
            ks,
            task,
            curve: None,
            placements,
        }
    }

    /// A menu offering nothing: [`search_speculative`] with it degenerates
    /// to the plain assignment search (used by callers that want its shared
    /// memo without speculation).
    pub fn empty() -> Self {
        Self {
            drafts: Vec::new(),
            ks: Vec::new(),
            task: SpecTask::RlhfRollout,
            curve: None,
            placements: Vec::new(),
        }
    }

    /// The default menu: the 1B and 7B drafts with `k ∈ {2, 4, 6, 8}`,
    /// calibrated for RLHF rollout sampling.
    pub fn standard(cluster: &ClusterSpec) -> Self {
        Self::build(
            cluster,
            vec![ModelSpec::llama3_1b(), ModelSpec::llama3_7b()],
            vec![2, 4, 6, 8],
            SpecTask::RlhfRollout,
        )
    }

    /// Replaces the calibrated acceptance curves with an explicit one (e.g.
    /// a measured per-deployment curve, or a constant for ablations).
    #[must_use]
    pub fn with_curve(mut self, curve: AcceptanceCurve) -> Self {
        self.curve = Some(curve);
        self
    }

    /// Whether the menu offers nothing (no drafts, lengths, or placements).
    pub fn is_empty(&self) -> bool {
        self.drafts.is_empty() || self.ks.is_empty() || self.placements.is_empty()
    }

    /// The acceptance curve used for `draft` speculating for `target`.
    fn curve_for(&self, draft: &ModelSpec, target: &ModelSpec) -> AcceptanceCurve {
        self.curve
            .clone()
            .unwrap_or_else(|| calibrated_acceptance(draft, target, self.task))
    }

    /// All valid speculation choices for a call whose model is `target`:
    /// drafts strictly smaller than the target, each `k`, each placement the
    /// draft's architecture supports. Deterministic order.
    pub fn options(&self, target: &ModelSpec) -> Vec<SpecChoice> {
        let mut out = Vec::new();
        for draft in &self.drafts {
            if draft.param_count() >= target.param_count() {
                continue;
            }
            let curve = self.curve_for(draft, target);
            for &k in &self.ks {
                for a in &self.placements {
                    let choice = SpecChoice {
                        config: SpecDecodeConfig {
                            draft_model: draft.clone(),
                            speculation_len: k,
                            acceptance_curve: curve.clone(),
                        },
                        assignment: *a,
                    };
                    if choice.validate().is_ok() {
                        out.push(choice);
                    }
                }
            }
        }
        out
    }
}

/// Result of [`search_speculative`]: the spec-free base search plus the
/// speculation-refined incumbent.
#[derive(Debug, Clone)]
pub struct SpecSearchResult {
    /// The plain assignment search the speculation chain started from.
    pub base: SearchResult,
    /// Best plan found, possibly with speculation attached.
    pub best_plan: ExecutionPlan,
    /// Estimated `TimeCost` of [`Self::best_plan`].
    pub best_time_cost: f64,
    /// Whether the best plan fits device memory (draft residency included).
    pub feasible: bool,
    /// Speculation-chain proposals evaluated (excludes the base search).
    pub spec_steps: u64,
    /// Speculation-chain proposals accepted.
    pub spec_accepted: u64,
    /// Memo counters of the whole search: the base search plus the
    /// speculation chain, which continues on the base search's memo.
    pub memo: MemoStats,
}

impl SpecSearchResult {
    /// Ratio `base/spec` end-to-end (> 1 when speculation helped).
    pub fn speedup_over_base(&self) -> f64 {
        self.base.best_time_cost / self.best_time_cost
    }
}

/// Runs the plain assignment search, then a Metropolis–Hastings chain mixing
/// assignment moves with speculation moves (toggle / re-draw draft and `k` /
/// move the draft mesh), and finishes with a deterministic greedy polish
/// that, per generation call, keeps the single best menu option only if it
/// strictly beats plain decode. With an empty menu (or no generation calls)
/// the result is exactly the base search's plan.
///
/// Both the base search and the speculation chain price through the
/// caller-owned `memo` — the hook behind cross-search memo persistence
/// (`real plan --memo-in/--memo-out`): a warm cache restored from a
/// snapshot skips re-pricing any `(call, assignment)` it has seen in an
/// earlier search. Memoization is exact, so the chosen plan is
/// bit-identical whatever the cache holds.
pub fn search_speculative(
    est: &Estimator,
    space: &SearchSpace,
    menu: &SpecMenu,
    cfg: &McmcConfig,
    memo: &mut CostMemo,
) -> SpecSearchResult {
    let memo_before = memo.stats();
    let base = mcmc::search_with_memo(est, space, cfg, memo);
    let graph = est.graph();
    let gen_calls: Vec<CallId> = graph
        .iter()
        .filter(|(_, c)| matches!(c.call_type, CallType::Generate { .. }))
        .map(|(id, _)| id)
        .collect();
    let options: Vec<Vec<SpecChoice>> = gen_calls
        .iter()
        .map(|&id| menu.options(&graph.call(id).model))
        .collect();

    let mut pricer = PlanPricer::with_memo(est, std::mem::take(memo));
    let mut current = base.best_plan.clone();
    let (mut current_cost, _) = pricer.cost_checked(&current);
    let mut best = current.clone();
    let mut best_cost = current_cost;
    let mut spec_steps = 0u64;
    let mut spec_accepted = 0u64;

    let any_options = options.iter().any(|o| !o.is_empty());
    if any_options {
        let mut rng = DeterministicRng::from_seed(cfg.seed).derive("specsearch");
        let start = Instant::now();
        for step in 0..cfg.max_steps {
            if step % 64 == 0 && start.elapsed() >= cfg.time_limit {
                break;
            }
            let proposal = match rng.index(4) {
                // Classic move: re-draw one call's assignment (speculation
                // choices ride along unchanged).
                0 | 1 => {
                    let call = rng.index(space.n_calls());
                    let opts = space.options(call);
                    let a = opts[rng.index(opts.len())];
                    match current.with_assignment(CallId(call), a) {
                        Ok(p) => p,
                        Err(_) => continue,
                    }
                }
                // Speculation on / re-drawn from the menu.
                2 => {
                    let gi = rng.index(gen_calls.len());
                    let opts = &options[gi];
                    if opts.is_empty() {
                        continue;
                    }
                    let choice = opts[rng.index(opts.len())].clone();
                    match current.with_spec(gen_calls[gi], Some(choice)) {
                        Ok(p) => p,
                        Err(_) => continue,
                    }
                }
                // Speculation off.
                _ => {
                    let gi = rng.index(gen_calls.len());
                    match current.with_spec(gen_calls[gi], None) {
                        Ok(p) => p,
                        Err(_) => continue,
                    }
                }
            };
            spec_steps += 1;
            let (cost, _) = pricer.cost_checked(&proposal);
            let progress = step as f64 / cfg.max_steps as f64;
            let beta = cfg.beta * (1.0 + 3.0 * progress);
            let delta = (cost - current_cost) / current_cost.max(f64::MIN_POSITIVE);
            if rng.uniform() < (-beta * delta).exp().min(1.0) {
                spec_accepted += 1;
                current = proposal;
                current_cost = cost;
                if cost < best_cost {
                    best = current.clone();
                    best_cost = cost;
                }
            }
        }
    }

    // Greedy polish: per generation call, compare plain decode against every
    // menu option and keep speculation only on a strict improvement. The
    // adopted candidate never costs more than the incumbent (the incumbent's
    // own choice is in the scan), so adoption is unconditional; ties favor
    // plain decode, which strips non-improving speculation.
    let mut improved = true;
    let mut sweeps = 0;
    while improved && sweeps < 4 {
        improved = false;
        sweeps += 1;
        for (gi, &id) in gen_calls.iter().enumerate() {
            let mut chosen = best
                .with_spec(id, None)
                .expect("removing speculation always validates");
            let (mut chosen_cost, _) = pricer.cost_checked(&chosen);
            for c in &options[gi] {
                let cand = best
                    .with_spec(id, Some(c.clone()))
                    .expect("menu choices validate");
                let (cost, _) = pricer.cost_checked(&cand);
                if cost < chosen_cost {
                    chosen = cand;
                    chosen_cost = cost;
                }
            }
            if chosen_cost < best_cost {
                improved = true;
            }
            best = chosen;
            best_cost = chosen_cost;
        }
    }

    let best_time_cost = pricer.time_cost(&best);
    let feasible = pricer.mem_ok(&best);
    let memo_stats = pricer.memo_stats().since(memo_before);
    *memo = pricer.into_memo();
    SpecSearchResult {
        base,
        best_plan: best,
        best_time_cost,
        feasible,
        spec_steps,
        spec_accepted,
        memo: memo_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::PruneLevel;
    use real_dataflow::algo::{ppo, RlhfConfig};
    use real_profiler::{ProfileConfig, Profiler};
    use std::time::Duration;

    fn setup() -> (ClusterSpec, Estimator, SearchSpace) {
        let cluster = ClusterSpec::h100(2);
        let actor = ModelSpec::llama3_7b();
        let critic = actor.critic();
        // Rollout-heavy RLHF: long generations make decode dominate, the
        // regime where speculative decoding pays end-to-end.
        let rlhf = RlhfConfig {
            gen_len: 3072,
            prompt_len: 256,
            ..RlhfConfig::instruct_gpt(32)
        };
        let graph = ppo(&actor, &critic, &rlhf);
        let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 11);
        let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
        let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
        let space = SearchSpace::build(&cluster, &graph, PruneLevel::Aggressive);
        (cluster, est, space)
    }

    fn cfg(seed: u64) -> McmcConfig {
        McmcConfig {
            max_steps: 2_000,
            time_limit: Duration::from_secs(60),
            seed,
            record_trace: false,
            ..McmcConfig::default()
        }
    }

    fn menu_at(cluster: &ClusterSpec, alpha: f64) -> SpecMenu {
        SpecMenu::build(
            cluster,
            vec![ModelSpec::llama3_1b()],
            vec![2, 4, 6, 8],
            SpecTask::RlhfRollout,
        )
        .with_curve(AcceptanceCurve::Constant(alpha))
    }

    #[test]
    fn menu_options_are_valid_and_nonempty() {
        let (cluster, _, _) = setup();
        let menu = menu_at(&cluster, 0.8);
        let opts = menu.options(&ModelSpec::llama3_7b());
        assert!(!opts.is_empty());
        for c in &opts {
            c.validate().unwrap();
        }
        // A draft never speculates for itself or anything smaller.
        assert!(menu.options(&ModelSpec::llama3_1b()).is_empty());
    }

    #[test]
    fn high_acceptance_finds_speculative_speedup() {
        let (cluster, est, space) = setup();
        let menu = menu_at(&cluster, 0.8);
        let r = search_speculative(&est, &space, &menu, &cfg(5), &mut CostMemo::new());
        assert!(r.feasible);
        assert!(
            r.best_plan.has_speculation(),
            "α=0.8 should make speculation worthwhile"
        );
        assert!(
            r.speedup_over_base() >= 1.25,
            "expected ≥25% end-to-end improvement at α=0.8, got {:.3}x",
            r.speedup_over_base()
        );
    }

    #[test]
    fn low_acceptance_selects_plain_decode() {
        let (cluster, est, space) = setup();
        let menu = menu_at(&cluster, 0.3);
        let r = search_speculative(&est, &space, &menu, &cfg(5), &mut CostMemo::new());
        assert!(
            !r.best_plan.has_speculation(),
            "α=0.3 speculation must be stripped by the polish"
        );
        assert!(r.best_time_cost <= r.base.best_time_cost + 1e-9);
    }

    #[test]
    fn empty_menu_reduces_to_base_search() {
        let (cluster, est, space) = setup();
        let menu = SpecMenu::build(&cluster, vec![], vec![4], SpecTask::RlhfRollout);
        assert!(menu.is_empty());
        let r = search_speculative(&est, &space, &menu, &cfg(5), &mut CostMemo::new());
        assert_eq!(r.spec_steps, 0);
        assert!(!r.best_plan.has_speculation());
        assert_eq!(
            serde_json::to_string(&r.best_plan).unwrap(),
            serde_json::to_string(&r.base.best_plan).unwrap()
        );
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let (cluster, est, space) = setup();
        let menu = menu_at(&cluster, 0.8);
        let a = search_speculative(&est, &space, &menu, &cfg(7), &mut CostMemo::new());
        let b = search_speculative(&est, &space, &menu, &cfg(7), &mut CostMemo::new());
        assert_eq!(
            serde_json::to_string(&a.best_plan).unwrap(),
            serde_json::to_string(&b.best_plan).unwrap()
        );
        assert_eq!(a.best_time_cost.to_bits(), b.best_time_cost.to_bits());
        assert_eq!(a.spec_steps, b.spec_steps);
        assert_eq!(a.spec_accepted, b.spec_accepted);
    }

    #[test]
    fn warm_memo_reuses_entries_and_picks_the_identical_plan() {
        let (cluster, est, space) = setup();
        let menu = menu_at(&cluster, 0.8);
        // Cold search, persisting the memo through a snapshot round-trip —
        // the search-level half of `real plan --memo-out` / `--memo-in`.
        let mut memo = CostMemo::new();
        let cold = search_speculative(&est, &space, &menu, &cfg(5), &mut memo);
        let ctx = est.context_fingerprint();
        let snap = memo.snapshot(ctx);
        assert!(snap.n_entries() > 0);

        let mut warm_memo =
            CostMemo::from_snapshot(&snap, ctx).expect("same pricing context restores");
        let warm = search_speculative(&est, &space, &menu, &cfg(5), &mut warm_memo);
        // Memoization is exact: warm and cold searches pick the same plan
        // at the same cost...
        assert_eq!(
            serde_json::to_string(&cold.best_plan).unwrap(),
            serde_json::to_string(&warm.best_plan).unwrap()
        );
        assert_eq!(cold.best_time_cost.to_bits(), warm.best_time_cost.to_bits());
        // ...and a fresh memo picks the same plan too.
        let plain = search_speculative(&est, &space, &menu, &cfg(5), &mut CostMemo::new());
        assert_eq!(
            serde_json::to_string(&plain.best_plan).unwrap(),
            serde_json::to_string(&cold.best_plan).unwrap()
        );
        // The warm run actually hit the cache.
        assert!(warm.base.memo.hits > 0 || warm.memo.hits > 0);
        // A different pricing context refuses the snapshot (cold start).
        assert!(CostMemo::from_snapshot(&snap, ctx ^ 1).is_none());
    }

    #[test]
    fn calibrated_curves_flow_through_the_menu() {
        let (cluster, _, _) = setup();
        let menu = SpecMenu::standard(&cluster);
        let opts = menu.options(&ModelSpec::llama3_70b());
        assert!(!opts.is_empty());
        // Calibrated curves are per-position, not constant.
        assert!(opts
            .iter()
            .any(|c| matches!(c.config.acceptance_curve, AcceptanceCurve::PerPosition(_))));
    }
}
