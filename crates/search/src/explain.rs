//! Plan comparison and explanation: which calls differ between two plans
//! and how much each difference contributes, by swapping assignments one
//! call at a time on the estimator. Powers `real plan`'s output and the
//! progressive-optimization figures.

use real_dataflow::{CallId, ExecutionPlan};
use real_estimator::Estimator;
use real_util::Table;

/// One call's difference between two plans.
#[derive(Debug, Clone)]
pub struct CallDiff {
    /// The call.
    pub call: CallId,
    /// Call name.
    pub call_name: String,
    /// Assignment rendered from the base plan.
    pub from: String,
    /// Assignment rendered from the target plan.
    pub to: String,
    /// Estimated `TimeCost` after adopting the target's assignment for this
    /// call on top of the base plan (all else unchanged).
    pub time_after_swap: f64,
}

/// One call's speculative-decoding difference between two plans: which
/// draft model drafts, at what speculation length, and where the draft
/// lives — or `off` when a side decodes plainly.
#[derive(Debug, Clone)]
pub struct SpecDiff {
    /// The call.
    pub call: CallId,
    /// Call name.
    pub call_name: String,
    /// The base plan's speculation choice, rendered (`off` when plain).
    pub from: String,
    /// The target plan's speculation choice, rendered (`off` when plain).
    pub to: String,
    /// Estimated `TimeCost` after adopting the target's speculation choice
    /// for this call on top of the base plan (all else unchanged).
    pub time_after_swap: f64,
}

/// A full comparison between a base plan and a target plan.
#[derive(Debug, Clone)]
pub struct PlanComparison {
    /// Estimated `TimeCost` of the base plan.
    pub base_time: f64,
    /// Estimated `TimeCost` of the target plan.
    pub target_time: f64,
    /// Per-call differences (only calls whose assignments differ).
    pub diffs: Vec<CallDiff>,
    /// Per-call speculative-decoding differences (only calls whose
    /// speculation choices differ).
    pub spec_diffs: Vec<SpecDiff>,
}

impl PlanComparison {
    /// Ratio `base/target` (> 1 when the target is faster).
    pub fn speedup(&self) -> f64 {
        self.base_time / self.target_time
    }

    /// Renders the comparison as a table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "call",
            "base",
            "target",
            "TimeCost after single swap (s)",
        ]);
        for d in &self.diffs {
            t.row(vec![
                d.call_name.clone(),
                d.from.clone(),
                d.to.clone(),
                format!("{:.2}", d.time_after_swap),
            ]);
        }
        let mut out = t.render();
        if !self.spec_diffs.is_empty() {
            let mut s = Table::new(vec![
                "call",
                "base speculation",
                "target speculation",
                "TimeCost after single swap (s)",
            ]);
            for d in &self.spec_diffs {
                s.row(vec![
                    d.call_name.clone(),
                    d.from.clone(),
                    d.to.clone(),
                    format!("{:.2}", d.time_after_swap),
                ]);
            }
            out.push_str(&s.render());
        }
        format!(
            "{}base {:.2}s -> target {:.2}s ({:.2}x)\n",
            out,
            self.base_time,
            self.target_time,
            self.speedup()
        )
    }
}

/// Compares `base` against `target` under `est`, measuring each differing
/// call's isolated contribution by swapping it alone into the base plan.
pub fn compare(est: &Estimator, base: &ExecutionPlan, target: &ExecutionPlan) -> PlanComparison {
    let graph = est.graph();
    let base_time = est.time_cost(base);
    let target_time = est.time_cost(target);
    let mut diffs = Vec::new();
    for (id, call) in graph.iter() {
        let a = base.assignment(id);
        let b = target.assignment(id);
        if a == b {
            continue;
        }
        let swapped = base
            .with_assignment(id, *b)
            .expect("assignments from valid plans stay valid");
        diffs.push(CallDiff {
            call: id,
            call_name: call.call_name.clone(),
            from: a.to_string(),
            to: b.to_string(),
            time_after_swap: est.time_cost(&swapped),
        });
    }
    let render_spec = |c: Option<&real_dataflow::SpecChoice>| {
        c.map_or_else(|| "off".to_string(), ToString::to_string)
    };
    let mut spec_diffs = Vec::new();
    for (id, call) in graph.iter() {
        let a = base.spec_choice(id);
        let b = target.spec_choice(id);
        if a == b {
            continue;
        }
        let swapped = base
            .with_spec(id, b.cloned())
            .expect("speculation choices from valid plans stay valid");
        spec_diffs.push(SpecDiff {
            call: id,
            call_name: call.call_name.clone(),
            from: render_spec(a),
            to: render_spec(b),
            time_after_swap: est.time_cost(&swapped),
        });
    }
    PlanComparison {
        base_time,
        target_time,
        diffs,
        spec_diffs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::heuristic_plan;
    use crate::mcmc::{search, McmcConfig};
    use crate::space::{PruneLevel, SearchSpace};
    use real_cluster::ClusterSpec;
    use real_dataflow::algo::{ppo, RlhfConfig};
    use real_model::ModelSpec;
    use real_profiler::{ProfileConfig, Profiler};
    use std::time::Duration;

    fn setup() -> (Estimator, SearchSpace) {
        let cluster = ClusterSpec::h100(2);
        let actor = ModelSpec::llama3_7b();
        let critic = actor.critic();
        let graph = ppo(&actor, &critic, &RlhfConfig::instruct_gpt(256));
        let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 13);
        let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
        let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
        let space = SearchSpace::build(&cluster, &graph, PruneLevel::Aggressive);
        (est, space)
    }

    #[test]
    fn identical_plans_have_no_diffs() {
        let (est, _) = setup();
        let plan = heuristic_plan(&est).unwrap();
        let cmp = compare(&est, &plan, &plan);
        assert!(cmp.diffs.is_empty());
        assert!(cmp.spec_diffs.is_empty());
        assert_eq!(cmp.base_time, cmp.target_time);
        assert!((cmp.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speculation_differences_are_reported() {
        use real_cluster::DeviceMesh;
        use real_dataflow::SpecChoice;
        use real_model::specdec::AcceptanceCurve;
        use real_model::{ParallelStrategy, SpecDecodeConfig};

        let (est, _) = setup();
        let plain = heuristic_plan(&est).unwrap();
        let cluster = est.cluster();
        let gen = est.graph().find("actor_gen").unwrap();
        let choice = SpecChoice {
            config: SpecDecodeConfig {
                draft_model: real_model::ModelSpec::llama3_1b(),
                speculation_len: 4,
                acceptance_curve: AcceptanceCurve::Constant(0.8),
            },
            assignment: real_dataflow::CallAssignment::new(
                DeviceMesh::sub_node(cluster, 0, 0, 2).unwrap(),
                ParallelStrategy::new(1, 2, 1, 1).unwrap(),
            )
            .unwrap(),
        };
        let speculative = plain.with_spec(gen, Some(choice)).unwrap();
        let cmp = compare(&est, &plain, &speculative);
        assert!(cmp.diffs.is_empty(), "assignments are unchanged");
        assert_eq!(cmp.spec_diffs.len(), 1);
        let d = &cmp.spec_diffs[0];
        assert_eq!(d.call, gen);
        assert_eq!(d.from, "off");
        assert!(
            d.to.contains("llama3-1b") && d.to.contains("k=4"),
            "{}",
            d.to
        );
        assert!(d.time_after_swap.is_finite() && d.time_after_swap > 0.0);
        let rendered = cmp.render();
        assert!(rendered.contains("speculation"), "{rendered}");
        // The reverse direction renders `off` on the target side.
        let back = compare(&est, &speculative, &plain);
        assert_eq!(back.spec_diffs.len(), 1);
        assert_eq!(back.spec_diffs[0].to, "off");
    }

    #[test]
    fn searched_vs_heuristic_shows_contributions() {
        let (est, space) = setup();
        let heuristic = heuristic_plan(&est).unwrap();
        let result = search(
            &est,
            &space,
            &McmcConfig {
                max_steps: 3_000,
                time_limit: Duration::from_secs(30),
                record_trace: false,
                ..McmcConfig::default()
            },
        );
        let cmp = compare(&est, &heuristic, &result.best_plan);
        assert!(!cmp.diffs.is_empty(), "the search should change something");
        assert!(cmp.speedup() > 1.0, "target must be faster");
        let rendered = cmp.render();
        assert!(rendered.contains("->"));
        assert!(rendered.contains('x'));
        // Each single swap produces a valid finite estimate.
        for d in &cmp.diffs {
            assert!(d.time_after_swap.is_finite() && d.time_after_swap > 0.0);
        }
    }
}
