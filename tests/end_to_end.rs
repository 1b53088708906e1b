//! End-to-end integration: profile → search → execute, across all crates.

use real_core::prelude::*;
use std::time::Duration;

fn quick_search(steps: u64) -> McmcConfig {
    McmcConfig {
        max_steps: steps,
        time_limit: Duration::from_secs(30),
        ..McmcConfig::default()
    }
}

fn experiment(nodes: u32, batch: u64) -> Experiment {
    Experiment::ppo(
        ClusterSpec::h100(nodes),
        ModelSpec::llama3_7b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(batch),
    )
    .with_quick_profile()
    .with_seed(1234)
}

#[test]
fn auto_planned_ppo_runs_and_reports() {
    let exp = experiment(1, 64);
    let planned = exp.plan_auto(&quick_search(2_000)).expect("feasible plan");
    let report = exp.run(&planned.plan, 3).expect("plan fits");
    assert_eq!(report.run.iterations, 3);
    assert_eq!(report.run.timings.len(), 18);
    assert!(report.run.iter_time > 0.0);
    assert!(report.tokens_per_sec > 0.0);
    assert_eq!(report.tokens_per_iter, 64 * 2048);
    // Category totals are all non-negative and compute dominates.
    let compute = report
        .run
        .category_totals
        .iter()
        .find(|(c, _)| *c == Category::Compute)
        .unwrap()
        .1;
    for &(_, secs) in &report.run.category_totals {
        assert!(secs >= 0.0);
        assert!(secs <= compute * 1.01 + report.run.total_time);
    }
}

#[test]
fn searched_plan_beats_heuristic_end_to_end() {
    let exp = experiment(2, 512);
    let planned = exp.plan_auto(&quick_search(6_000)).expect("feasible plan");
    let heuristic = exp.plan_heuristic().unwrap();
    let searched_time = exp.run(&planned.plan, 2).unwrap().run.iter_time;
    let heuristic_time = exp.run(&heuristic, 2).unwrap().run.iter_time;
    assert!(
        searched_time < heuristic_time,
        "searched {searched_time} vs heuristic {heuristic_time}"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let exp = experiment(1, 64);
        let planned = exp.plan_auto(&quick_search(1_000)).expect("feasible plan");
        let report = exp.run(&planned.plan, 2).expect("plan fits");
        (planned.plan, report.run.iter_time)
    };
    let (plan_a, time_a) = run();
    let (plan_b, time_b) = run();
    assert_eq!(plan_a, plan_b);
    assert_eq!(time_a, time_b);
}

#[test]
fn generation_dominates_ppo_iterations() {
    // Fig. 1 / Table 6: under a symmetric plan, generation is the longest
    // call of the iteration.
    let exp = experiment(1, 128);
    let heuristic = exp.plan_heuristic().unwrap();
    let report = exp.run(&heuristic, 2).unwrap();
    let gen = report.run.call_mean("actor_gen").unwrap();
    for other in ["reward_inf", "ref_inf", "critic_inf", "critic_train"] {
        assert!(
            gen > report.run.call_mean(other).unwrap(),
            "{other} exceeded generation"
        );
    }
}

#[test]
fn estimator_matches_runtime_within_paper_bound() {
    // Fig. 12's claim as a test: relative differences consistently below
    // 25%, with plan ordering preserved.
    let exp = experiment(2, 512);
    let (est, _) = exp.prepare();
    let planned = exp.plan_auto(&quick_search(4_000)).expect("feasible plan");
    let heuristic = exp.plan_heuristic().unwrap();

    let mut pairs = Vec::new();
    for plan in [&planned.plan, &heuristic] {
        let estimated = est.time_cost(plan);
        let measured = exp.run(plan, 2).unwrap().run.iter_time;
        let rel = ((estimated - measured) / measured).abs();
        assert!(rel < 0.25, "relative error {rel}");
        pairs.push((estimated, measured));
    }
    assert_eq!(
        pairs[0].0 < pairs[1].0,
        pairs[0].1 < pairs[1].1,
        "estimator must preserve plan ordering"
    );
}

#[test]
fn profiling_budget_matches_paper_claim() {
    // Full-grid profiling of one model family stays under 4 minutes of
    // simulated time.
    let mut profiler = Profiler::new(ClusterSpec::h100(1), ProfileConfig::paper(), 5);
    for size in ["7b", "70b"] {
        let db = profiler.profile(&ModelSpec::by_size(size).unwrap());
        assert!(
            db.profiling_secs() < 240.0,
            "{size} profiling took {}",
            db.profiling_secs()
        );
    }
}

#[test]
fn oom_plans_are_rejected_by_the_engine() {
    let exp = experiment(1, 512);
    let cluster = ClusterSpec::h100(1);
    let graph = exp.graph().clone();
    // Pure DP: full optimizer state on every GPU.
    let a = CallAssignment::new(
        DeviceMesh::full(&cluster),
        ParallelStrategy::new(8, 1, 1, 1).unwrap(),
    )
    .unwrap();
    let plan = ExecutionPlan::new(&graph, &cluster, vec![a; graph.n_calls()]).unwrap();
    let err = exp.run(&plan, 1).unwrap_err();
    assert!(matches!(err, RunError::OutOfMemory { .. }));
}
