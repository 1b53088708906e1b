//! Branch-and-bound brute force over the pruned option space — the
//! optimality reference for Fig. 15.
//!
//! The raw space is not enumerable (hundreds of options per call, six
//! calls), so, as recorded in DESIGN.md, the reference enumerates the same
//! pruned space the MCMC searches, truncated to the top-`k` options per
//! call by isolated duration, with an admissible lower bound: the
//! [`Template::critical_path_bound`] of the fixed calls' durations plus each
//! open call's minimum duration. The makespan is at least the longest path
//! through the call nodes, and the path only grows with any call's
//! duration, so the bound never overestimates any plan in the subtree.

use crate::space::SearchSpace;
use real_dataflow::{CallId, ExecutionPlan};
use real_estimator::augment::Template;
use real_estimator::{Estimator, PlanPricer};
use std::time::{Duration, Instant};

/// Brute-force configuration.
#[derive(Debug, Clone)]
pub struct BruteConfig {
    /// Options kept per call (top-k by isolated duration).
    pub top_k: usize,
    /// Wall-clock budget; the search returns the best found when exceeded.
    pub time_limit: Duration,
}

impl Default for BruteConfig {
    fn default() -> Self {
        Self {
            top_k: 12,
            time_limit: Duration::from_secs(600),
        }
    }
}

/// Result of the exhaustive search.
#[derive(Debug, Clone)]
pub struct BruteResult {
    /// The optimal plan over the truncated space (best found if the time
    /// limit was hit).
    pub best_plan: ExecutionPlan,
    /// Its `TimeCost`.
    pub best_time_cost: f64,
    /// Complete plans evaluated.
    pub evaluated: u64,
    /// Subtrees pruned by the bound.
    pub pruned: u64,
    /// Whether the enumeration finished within the time limit (result is
    /// provably optimal for the truncated space).
    pub exhaustive: bool,
}

/// Runs branch-and-bound over `space` truncated to `cfg.top_k` options per
/// call.
///
/// # Panics
///
/// Panics if the space is empty.
pub fn brute_force(est: &Estimator, space: &SearchSpace, cfg: &BruteConfig) -> BruteResult {
    let start = Instant::now();
    let graph = est.graph();
    let n = graph.n_calls();
    assert!(n > 0, "cannot search an empty workflow");

    // Truncate and sort each call's options by isolated duration.
    let small = space.truncated_by(cfg.top_k, |call, a| est.call_duration(CallId(call), a));

    // min_dur[call] over the truncated options (options are sorted by
    // duration, so index 0 is the minimum).
    let min_dur: Vec<f64> = (0..n)
        .map(|c| est.call_duration(CallId(c), &small.options(c)[0]))
        .collect();
    let template = Template::new(est);

    let mut pricer = PlanPricer::new(est);
    let mut best_plan: Option<ExecutionPlan> = None;
    let mut best_cost = f64::INFINITY;
    let mut evaluated = 0u64;
    let mut pruned = 0u64;
    let mut exhaustive = true;

    // Iterative DFS over option indices.
    let mut choice = vec![0usize; n];
    let mut depth = 0usize;
    'dfs: loop {
        if start.elapsed() > cfg.time_limit {
            exhaustive = false;
            break;
        }
        if depth == n {
            // Complete plan: evaluate exactly.
            let assignments: Vec<_> = (0..n).map(|c| small.options(c)[choice[c]]).collect();
            if let Ok(plan) = ExecutionPlan::new(graph, est.cluster(), assignments) {
                evaluated += 1;
                let cost = pricer.cost(&plan);
                if cost < best_cost {
                    best_cost = cost;
                    best_plan = Some(plan);
                }
            }
            // Backtrack.
            loop {
                if depth == 0 {
                    break 'dfs;
                }
                depth -= 1;
                choice[depth] += 1;
                if choice[depth] < small.options(depth).len() {
                    depth += 1;
                    break;
                }
                choice[depth] = 0;
            }
            continue;
        }

        // Lower bound with calls < depth fixed, rest at their minima.
        let durations: Vec<f64> = (0..n)
            .map(|c| {
                if c < depth {
                    est.call_duration(CallId(c), &small.options(c)[choice[c]])
                } else {
                    min_dur[c]
                }
            })
            .collect();
        if template.critical_path_bound(graph, &durations) >= best_cost {
            pruned += 1;
            // Skip this subtree.
            loop {
                if depth == 0 {
                    break 'dfs;
                }
                depth -= 1;
                choice[depth] += 1;
                if choice[depth] < small.options(depth).len() {
                    depth += 1;
                    break;
                }
                choice[depth] = 0;
            }
            continue;
        }
        depth += 1;
    }

    let best_plan = best_plan.expect("at least one complete plan is evaluated");
    BruteResult {
        best_time_cost: pricer.time_cost(&best_plan),
        best_plan,
        evaluated,
        pruned,
        exhaustive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcmc::{search, McmcConfig};
    use crate::space::{PruneLevel, SearchSpace};
    use real_cluster::ClusterSpec;
    use real_dataflow::algo::{ppo, RlhfConfig};
    use real_model::ModelSpec;
    use real_profiler::{ProfileConfig, Profiler};

    fn setup(batch: u64) -> (Estimator, SearchSpace) {
        let cluster = ClusterSpec::h100(1);
        let actor = ModelSpec::llama3_7b();
        let critic = actor.critic();
        let graph = ppo(&actor, &critic, &RlhfConfig::instruct_gpt(batch));
        let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 31);
        let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
        let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
        let space = SearchSpace::build(&cluster, &graph, PruneLevel::Aggressive);
        (est, space)
    }

    #[test]
    fn tiny_space_is_searched_exhaustively() {
        let (est, space) = setup(64);
        let cfg = BruteConfig {
            top_k: 3,
            time_limit: Duration::from_secs(120),
        };
        let r = brute_force(&est, &space, &cfg);
        assert!(r.exhaustive, "3^6 = 729 plans must enumerate quickly");
        assert!(r.evaluated + r.pruned > 0);
        assert!(r.best_time_cost.is_finite());
    }

    #[test]
    fn brute_force_is_at_least_as_good_as_any_truncated_plan() {
        let (est, space) = setup(64);
        let cfg = BruteConfig {
            top_k: 2,
            time_limit: Duration::from_secs(120),
        };
        let r = brute_force(&est, &space, &cfg);
        // Compare against the all-minimum (greedy-in-truncated) plan.
        let greedy: Vec<_> = (0..space.n_calls())
            .map(|c| {
                space
                    .truncated_by(2, |call, a| est.call_duration(CallId(call), a))
                    .options(c)[0]
            })
            .collect();
        let greedy_plan = ExecutionPlan::new(est.graph(), est.cluster(), greedy).unwrap();
        assert!(r.best_time_cost <= est.cost(&greedy_plan) + 1e-9);
    }

    #[test]
    fn mcmc_approaches_brute_force_optimum() {
        // Fig. 15: MCMC reaches >= 95% of the brute-force optimum quickly.
        let (est, space) = setup(64);
        let brute_cfg = BruteConfig {
            top_k: 4,
            time_limit: Duration::from_secs(300),
        };
        let optimal = brute_force(&est, &space, &brute_cfg);
        assert!(optimal.exhaustive);

        let mcmc_cfg = McmcConfig {
            beta: 1.0,
            max_steps: 5_000,
            time_limit: Duration::from_secs(60),
            seed: 5,
            record_trace: false,
        };
        let result = search(&est, &space, &mcmc_cfg);
        // MCMC searches the *full* pruned space, so it may even beat the
        // truncated brute force; require it within 20% either way.
        assert!(
            result.best_time_cost <= optimal.best_time_cost * 1.2,
            "mcmc {} vs brute {}",
            result.best_time_cost,
            optimal.best_time_cost
        );
    }

    #[test]
    fn enumeration_is_bounded_by_truncated_space() {
        let (est, space) = setup(64);
        let cfg = BruteConfig {
            top_k: 4,
            time_limit: Duration::from_secs(300),
        };
        let r = brute_force(&est, &space, &cfg);
        // 4^6 complete plans at most; the bound may or may not fire on a
        // space this small, but evaluated + pruned work is bounded.
        assert!(r.evaluated >= 1);
        assert!(r.evaluated <= 4096, "evaluated {}", r.evaluated);
        assert!(r.exhaustive);
    }
}
