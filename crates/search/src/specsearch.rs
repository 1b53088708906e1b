//! Speculation-aware plan search: makes draft/verify decode a searchable
//! plan dimension on top of the assignment MCMC.
//!
//! A [`SpecMenu`] lists the draft models, speculation lengths and draft
//! placements a generation call may speculate with;
//! [`SearchSpace::with_speculation`] adds them to the space as a second
//! dimension, and the one MCMC driver ([`crate::mcmc`]) then proposes
//! speculation moves (set or re-draw a choice, clear it) next to assignment
//! moves, and its polish sweeps every menu option per generation call,
//! keeping speculation only where it strictly beats plain decode.
//!
//! [`search_speculative`] runs two phases through that driver: the plain
//! assignment search, then — only when the menu offers options — one chain
//! over the speculation space warm-started from the plain winner, within
//! the wall-clock budget the plain search left. The refined plan's cost
//! never exceeds the plain winner's, and at low acceptance the polish
//! strips every draft.

use crate::mcmc::{parallel_search_on, search_warm, McmcConfig, SearchResult};
use crate::space::SearchSpace;
use real_cluster::{ClusterSpec, DeviceMesh};
use real_dataflow::{CallAssignment, SpecChoice};
use real_estimator::{CostMemo, Estimator, MemoStats};
use real_model::specdec::{AcceptanceCurve, SpecDecodeConfig};
use real_model::{ModelSpec, ParallelStrategy};
use real_profiler::{calibrated_acceptance, SpecTask};
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

    /// A menu offering nothing: speculation off. [`search_speculative`]
    /// with it is exactly the plain assignment search.
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

/// Result of [`search_speculative`]: the plain assignment search and, when
/// the menu offered options, the speculation refinement started from its
/// winner.
#[derive(Debug, Clone)]
pub struct SpecSearchResult {
    /// The plain assignment search (all chains merged).
    pub base: SearchResult,
    /// The chain over the speculation space, warm-started from
    /// [`Self::base`]'s plan; `None` when the menu offers no option for any
    /// generation call.
    pub refined: Option<SearchResult>,
}

impl SpecSearchResult {
    /// The final search: the refinement when one ran, the plain search
    /// otherwise. Its `best_plan` is the plan to execute, possibly with
    /// speculation attached.
    pub fn best(&self) -> &SearchResult {
        self.refined.as_ref().unwrap_or(&self.base)
    }

    /// Ratio `base/best` end-to-end (> 1 when speculation helped).
    pub fn speedup_over_base(&self) -> f64 {
        self.base.best_time_cost / self.best().best_time_cost
    }

    /// Memo counters of the whole search: the plain search plus the
    /// refinement.
    pub fn memo(&self) -> MemoStats {
        self.refined
            .as_ref()
            .map_or(self.base.memo, |r| self.base.memo.merged(r.memo))
    }
}

/// Runs the plain assignment search over `n_chains` chains on `threads`
/// workers ([`parallel_search_on`]), then — only when `menu` offers a
/// choice for some generation call — one [`search_warm`] chain over the
/// speculation space, started from the plain winner and limited to the
/// wall-clock time the plain search left of `cfg.time_limit`. With an empty
/// menu the result is exactly the plain search.
///
/// Chain 0 of the plain search and the refinement price through the
/// caller-owned `memo`: a cache warmed by an earlier search in the same
/// pricing context skips re-pricing anything it has seen. Memoization is
/// exact, so the chosen plan is bit-identical whatever the cache holds.
pub fn search_speculative(
    est: &Estimator,
    space: &SearchSpace,
    menu: &SpecMenu,
    cfg: &McmcConfig,
    n_chains: usize,
    threads: usize,
    memo: &mut CostMemo,
) -> SpecSearchResult {
    let start = Instant::now();
    let base = parallel_search_on(est, space, cfg, n_chains, threads, memo);
    let refined = (!menu.is_empty())
        .then(|| space.clone().with_speculation(est.graph(), menu))
        .filter(|spec_space| !spec_space.spec_options().is_empty())
        .map(|spec_space| {
            let remaining = McmcConfig {
                time_limit: cfg.time_limit.saturating_sub(start.elapsed()),
                ..cfg.clone()
            };
            search_warm(est, &spec_space, &remaining, &base.best_plan, memo)
        });
    SpecSearchResult { base, refined }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::PruneLevel;
    use real_dataflow::algo::{ppo, RlhfConfig};
    use real_dataflow::CallType;
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
    fn speculation_space_offers_choices_on_generation_calls_only() {
        let (cluster, est, space) = setup();
        assert!(space.spec_options().is_empty());
        let graph = est.graph();
        let spec = space
            .clone()
            .with_speculation(graph, &menu_at(&cluster, 0.8));
        assert_eq!(spec.spec_options().len(), 1, "PPO has one generation call");
        let (call, choices) = &spec.spec_options()[0];
        assert!(matches!(
            graph.call(*call).call_type,
            CallType::Generate { .. }
        ));
        assert_eq!(
            choices,
            &menu_at(&cluster, 0.8).options(&graph.call(*call).model)
        );
        // The assignment dimension is untouched, and an empty menu adds
        // nothing.
        assert_eq!(spec.total_options(), space.total_options());
        let none = space.with_speculation(graph, &SpecMenu::empty());
        assert!(none.spec_options().is_empty());
    }

    #[test]
    fn high_acceptance_finds_speculative_speedup() {
        let (cluster, est, space) = setup();
        let menu = menu_at(&cluster, 0.8);
        let r = search_speculative(&est, &space, &menu, &cfg(5), 1, 1, &mut CostMemo::new());
        assert!(r.best().feasible);
        assert!(
            r.best().best_plan.has_speculation(),
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
        let r = search_speculative(&est, &space, &menu, &cfg(5), 1, 1, &mut CostMemo::new());
        assert!(
            !r.best().best_plan.has_speculation(),
            "α=0.3 speculation must be stripped by the polish"
        );
        assert!(r.best().best_time_cost <= r.base.best_time_cost + 1e-9);
    }

    #[test]
    fn empty_menu_reduces_to_base_search() {
        let (cluster, est, space) = setup();
        let menu = SpecMenu::build(&cluster, vec![], vec![4], SpecTask::RlhfRollout);
        assert!(menu.is_empty());
        let r = search_speculative(&est, &space, &menu, &cfg(5), 1, 1, &mut CostMemo::new());
        assert!(r.refined.is_none(), "no refinement chain runs");
        assert!(!r.best().best_plan.has_speculation());
        let plain = crate::mcmc::search(&est, &space, &cfg(5));
        assert_eq!(
            serde_json::to_string(&r.best().best_plan).unwrap(),
            serde_json::to_string(&plain.best_plan).unwrap()
        );
    }

    #[test]
    fn zero_budget_returns_the_plain_plan_without_speculation() {
        // The refinement gets only the wall-clock time the plain phase left:
        // with none at all, neither phase may take a step or polish, so the
        // result is the plain phase's plan, bit for bit.
        let (cluster, est, space) = setup();
        let menu = menu_at(&cluster, 0.95);
        let zero = McmcConfig {
            time_limit: Duration::ZERO,
            ..cfg(5)
        };
        let r = search_speculative(&est, &space, &menu, &zero, 1, 1, &mut CostMemo::new());
        let refined = r.refined.as_ref().expect("the menu offers options");
        assert_eq!(refined.steps, 0);
        assert!(!refined.best_plan.has_speculation());
        assert_eq!(
            serde_json::to_string(&refined.best_plan).unwrap(),
            serde_json::to_string(&r.base.best_plan).unwrap()
        );
        assert_eq!(
            refined.best_time_cost.to_bits(),
            r.base.best_time_cost.to_bits()
        );
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let (cluster, est, space) = setup();
        let menu = menu_at(&cluster, 0.8);
        let a = search_speculative(&est, &space, &menu, &cfg(7), 1, 1, &mut CostMemo::new());
        let b = search_speculative(&est, &space, &menu, &cfg(7), 1, 1, &mut CostMemo::new());
        let (a, b) = (a.best(), b.best());
        assert_eq!(
            serde_json::to_string(&a.best_plan).unwrap(),
            serde_json::to_string(&b.best_plan).unwrap()
        );
        assert_eq!(a.best_time_cost.to_bits(), b.best_time_cost.to_bits());
        assert_eq!((a.steps, a.accepted), (b.steps, b.accepted));
    }

    #[test]
    fn warm_memo_reuses_entries_and_picks_the_identical_plan() {
        let (cluster, est, space) = setup();
        let menu = menu_at(&cluster, 0.8);
        // Cold search, then a second search reusing its memo.
        let mut memo = CostMemo::new();
        let cold = search_speculative(&est, &space, &menu, &cfg(5), 1, 1, &mut memo);
        assert!(memo.stats().entries > 0);
        let warm = search_speculative(&est, &space, &menu, &cfg(5), 1, 1, &mut memo);
        // Memoization is exact: warm and cold searches pick the same plan
        // at the same cost...
        assert_eq!(
            serde_json::to_string(&cold.best().best_plan).unwrap(),
            serde_json::to_string(&warm.best().best_plan).unwrap()
        );
        assert_eq!(
            cold.best().best_time_cost.to_bits(),
            warm.best().best_time_cost.to_bits()
        );
        // ...and a fresh memo picks the same plan too.
        let plain = search_speculative(&est, &space, &menu, &cfg(5), 1, 1, &mut CostMemo::new());
        assert_eq!(
            serde_json::to_string(&plain.best().best_plan).unwrap(),
            serde_json::to_string(&cold.best().best_plan).unwrap()
        );
        // The warm run actually hit the cache.
        assert!(warm.memo().hits > 0);
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
