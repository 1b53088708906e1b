//! The §5.2 greedy initial solution: independently pick each call's option
//! with the minimum isolated duration. The paper notes this plan "can be
//! sub-optimal due to the excessive memory allocation on devices and the
//! lack of overlap between different model function calls" — it is only the
//! Markov chain's starting point. It reads every option's duration from a
//! `DurationTable`, which the chain keeps for its polish.

use crate::space::SearchSpace;
use real_dataflow::{CallId, ExecutionPlan, SpecChoice};
use real_estimator::Estimator;

/// Builds the greedy plan `p0`: per call, the fastest isolated option,
/// every option priced from scratch.
///
/// # Panics
///
/// Panics if the space and estimator disagree on the call count, or if the
/// resulting plan fails validation (the space guarantees it cannot).
pub fn greedy_plan(est: &Estimator, space: &SearchSpace) -> ExecutionPlan {
    DurationTable::new(est, space).greedy_plan()
}

/// Each call's option durations, aligned with [`SearchSpace::options`]:
/// a row holds [`Estimator::call_duration`] of every option, or
/// [`Estimator::spec_call_duration`] under the speculation choice it was
/// last read for. A chain reads every option's duration for its greedy
/// start and for each polish sweep, so the table prices each row once, on
/// first use, and again only when the call's speculation choice changes.
/// A plain row prices each distinct duration shape once
/// ([`Estimator::call_durations`]): at 1024 GPUs, 77,067 options share
/// 3,395 shapes.
pub(crate) struct DurationTable<'a> {
    est: &'a Estimator,
    space: &'a SearchSpace,
    /// Per call: the choice the row was priced under, and the row (empty
    /// until first read; option lists never are).
    rows: Vec<(Option<SpecChoice>, Vec<f64>)>,
}

impl<'a> DurationTable<'a> {
    /// An empty table over `space`.
    ///
    /// # Panics
    ///
    /// Panics if the space and estimator disagree on the call count.
    pub(crate) fn new(est: &'a Estimator, space: &'a SearchSpace) -> Self {
        assert_eq!(
            space.n_calls(),
            est.graph().n_calls(),
            "space/graph call count mismatch"
        );
        Self {
            est,
            space,
            rows: vec![(None, Vec::new()); space.n_calls()],
        }
    }

    /// `call`'s option durations when it decodes under `spec` (plainly
    /// when `None`).
    pub(crate) fn row(&mut self, call: CallId, spec: Option<&SpecChoice>) -> &[f64] {
        let est = self.est;
        let (held, row) = &mut self.rows[call.0];
        if row.is_empty() || held.as_ref() != spec {
            let options = self.space.options(call.0);
            row.clear();
            match spec {
                Some(choice) => row.extend(
                    options
                        .iter()
                        .map(|a| est.spec_call_duration(call, a, choice)),
                ),
                None => est.call_durations(call, options, row),
            }
            *held = spec.cloned();
        }
        row
    }

    /// The greedy plan: per call, the first option of least plain duration.
    pub(crate) fn greedy_plan(&mut self) -> ExecutionPlan {
        let assignments = (0..self.space.n_calls())
            .map(|call| {
                // `min_by` keeps the first minimum.
                let (best, _) = self
                    .row(CallId(call), None)
                    .iter()
                    .enumerate()
                    .min_by(|(_, x), (_, y)| x.partial_cmp(y).expect("durations are finite"))
                    .expect("search space guarantees non-empty option lists");
                self.space.options(call)[best]
            })
            .collect();
        ExecutionPlan::new(self.est.graph(), self.est.cluster(), assignments)
            .expect("options from the search space always validate")
    }
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
    fn the_duration_table_matches_from_scratch_pricing() {
        let (est, space) = setup();
        let mut table = DurationTable::new(&est, &space);
        let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let gen = est.graph().find("actor_gen").unwrap();
        let plain: Vec<u64> = space
            .options(gen.0)
            .iter()
            .map(|a| est.call_duration(gen, a).to_bits())
            .collect();
        assert_eq!(bits(table.row(gen, None)), plain);
        // A speculating call's row holds its spec-aware durations, and is
        // re-priced when the choice changes.
        let cluster = est.cluster();
        let choice = |len| SpecChoice {
            config: real_model::SpecDecodeConfig {
                draft_model: real_model::ModelSpec::llama3_1b(),
                speculation_len: len,
                acceptance_curve: real_model::AcceptanceCurve::Constant(0.8),
            },
            assignment: real_dataflow::CallAssignment::new(
                real_cluster::DeviceMesh::sub_node(cluster, 0, 0, 2).unwrap(),
                real_model::ParallelStrategy::new(1, 2, 1, 1).unwrap(),
            )
            .unwrap(),
        };
        for c in [choice(4), choice(6)] {
            let spec: Vec<u64> = space
                .options(gen.0)
                .iter()
                .map(|a| est.spec_call_duration(gen, a, &c).to_bits())
                .collect();
            assert_ne!(spec, plain);
            assert_eq!(bits(table.row(gen, Some(&c))), spec);
        }
        assert_eq!(bits(table.row(gen, None)), plain);
        // The greedy plan takes each row's first minimum.
        let plan = table.greedy_plan();
        for call in 0..space.n_calls() {
            let row = table.row(CallId(call), None).to_vec();
            let first = row
                .iter()
                .position(|&d| d == row.iter().copied().fold(f64::INFINITY, f64::min));
            assert_eq!(
                *plan.assignment(CallId(call)),
                space.options(call)[first.unwrap()]
            );
        }
        assert_eq!(plan, greedy_plan(&est, &space));
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
