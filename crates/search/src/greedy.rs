//! The §5.2 greedy initial solution: independently pick each call's option
//! with the minimum isolated duration. The paper notes this plan "can be
//! sub-optimal due to the excessive memory allocation on devices and the
//! lack of overlap between different model function calls" — it is only the
//! Markov chain's starting point.

use crate::space::SearchSpace;
use real_dataflow::{CallAssignment, CallId, ExecutionPlan};
use real_estimator::Estimator;

/// Builds the greedy plan `p0`: per call, the fastest isolated option,
/// every option priced from scratch.
///
/// # Panics
///
/// Panics if the space and estimator disagree on the call count, or if the
/// resulting plan fails validation (the space guarantees it cannot).
pub fn greedy_plan(est: &Estimator, space: &SearchSpace) -> ExecutionPlan {
    greedy_plan_with(est, space, |call, a| est.call_duration(call, a))
}

/// [`greedy_plan`] with each option's duration read from `duration`, which
/// must return [`Estimator::call_duration`]'s value (a chain passes its
/// memoized pricer, so the polish later hits the entries priced here).
pub(crate) fn greedy_plan_with(
    est: &Estimator,
    space: &SearchSpace,
    mut duration: impl FnMut(CallId, &CallAssignment) -> f64,
) -> ExecutionPlan {
    let graph = est.graph();
    assert_eq!(
        space.n_calls(),
        graph.n_calls(),
        "space/graph call count mismatch"
    );
    let mut assignments = Vec::with_capacity(graph.n_calls());
    for call in 0..graph.n_calls() {
        let id = CallId(call);
        // Each option is priced once; `min_by` keeps the first minimum.
        let (best, _) = space
            .options(call)
            .iter()
            .map(|a| (a, duration(id, a)))
            .min_by(|(_, x), (_, y)| x.partial_cmp(y).expect("durations are finite"))
            .expect("search space guarantees non-empty option lists");
        assignments.push(*best);
    }
    ExecutionPlan::new(graph, est.cluster(), assignments)
        .expect("options from the search space always validate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::PruneLevel;
    use real_cluster::ClusterSpec;
    use real_dataflow::algo::{ppo, RlhfConfig};
    use real_model::ModelSpec;
    use real_profiler::{ProfileConfig, Profiler};

    fn setup() -> (Estimator, SearchSpace) {
        let cluster = ClusterSpec::h100(1);
        let actor = ModelSpec::llama3_7b();
        let critic = actor.critic();
        let graph = ppo(&actor, &critic, &RlhfConfig::instruct_gpt(128));
        let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 2);
        let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
        let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
        let space = SearchSpace::build(&cluster, &graph, PruneLevel::Aggressive);
        (est, space)
    }

    #[test]
    fn greedy_picks_per_call_minimum() {
        let (est, space) = setup();
        let plan = greedy_plan(&est, &space);
        for call in 0..space.n_calls() {
            let id = CallId(call);
            let chosen = est.call_duration(id, plan.assignment(id));
            for opt in space.options(call) {
                assert!(
                    chosen <= est.call_duration(id, opt) + 1e-12,
                    "call {call}: greedy missed a faster option"
                );
            }
        }
    }

    #[test]
    fn greedy_through_the_memo_matches_from_scratch() {
        let (est, space) = setup();
        let mut pricer = real_estimator::PlanPricer::new(&est);
        let memoized = greedy_plan_with(&est, &space, |c, a| pricer.call_duration(c, a));
        assert_eq!(memoized, greedy_plan(&est, &space));
        // Every option was priced once and left in the memo for the polish.
        let options: usize = (0..space.n_calls()).map(|c| space.options(c).len()).sum();
        let stats = pricer.memo_stats();
        assert_eq!(stats.hits + stats.misses, options as u64);
        assert!(stats.entries > 0);
    }

    #[test]
    fn greedy_plan_is_deterministic() {
        let (est, space) = setup();
        assert_eq!(greedy_plan(&est, &space), greedy_plan(&est, &space));
    }

    #[test]
    fn greedy_has_finite_time_cost() {
        let (est, space) = setup();
        let plan = greedy_plan(&est, &space);
        let t = est.time_cost(&plan);
        assert!(t.is_finite() && t > 0.0);
    }
}
