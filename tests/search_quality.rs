//! Integration tests for the execution-plan generator: search quality,
//! pruning behaviour, and brute-force agreement (§8.2 claims as tests).

use real_core::prelude::*;
use std::time::Duration;

fn setup(nodes: u32, batch: u64) -> (Estimator, SearchSpace, Experiment) {
    let exp = Experiment::ppo(
        ClusterSpec::h100(nodes),
        ModelSpec::llama3_7b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(batch),
    )
    .with_quick_profile()
    .with_seed(77);
    let (est, _) = exp.prepare();
    let space = exp.search_space();
    (est, space, exp)
}

#[test]
fn mcmc_reaches_near_brute_force_optimum() {
    // Fig. 15: the searched plan reaches >= 95% of the reference optimum.
    let (est, space, _) = setup(1, 64);
    let brute = brute_force(
        &est,
        &space,
        &BruteConfig {
            top_k: 5,
            time_limit: Duration::from_secs(120),
        },
    );
    assert!(brute.exhaustive, "5^6 plans must enumerate");
    let cfg = McmcConfig {
        max_steps: 5_000,
        time_limit: Duration::from_secs(60),
        record_trace: false,
        ..McmcConfig::default()
    };
    let result = search(&est, &space, &cfg);
    // MCMC searches the full pruned space: it may beat the truncated
    // reference; it must reach at least 95% of it.
    assert!(
        result.best_time_cost <= brute.best_time_cost / 0.95,
        "mcmc {} vs brute {}",
        result.best_time_cost,
        brute.best_time_cost
    );
}

#[test]
fn pruning_levels_trade_space_for_quality() {
    // Fig. 14's mechanism: tighter pruning shrinks the space.
    let exp = Experiment::ppo(
        ClusterSpec::h100(4),
        ModelSpec::llama3_7b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(512),
    )
    .with_quick_profile();
    let sizes: Vec<f64> = [
        PruneLevel::Aggressive,
        PruneLevel::Moderate,
        PruneLevel::Light,
    ]
    .into_iter()
    .map(|level| {
        let e = exp.clone().with_prune_level(level);
        e.search_space().log10_size()
    })
    .collect();
    assert!(sizes[0] < sizes[1], "aggressive < moderate");
    assert!(sizes[1] < sizes[2], "moderate < light");
    // The paper's scale claim: even a two-node cluster's unpruned space is
    // astronomically large.
    assert!(sizes[2] > 10.0, "log10 size {}", sizes[2]);
}

#[test]
fn searched_plans_use_parameter_reallocation() {
    // The headline mechanism: for the 7B+7B case the searched plan gives at
    // least one model different layouts for different calls (requiring a
    // reallocation at runtime).
    let (est, space, exp) = setup(2, 512);
    let cfg = McmcConfig {
        max_steps: 8_000,
        time_limit: Duration::from_secs(60),
        record_trace: false,
        ..McmcConfig::default()
    };
    let result = search(&est, &space, &cfg);
    assert!(result.feasible);
    let graph = exp.graph();
    let plan = &result.best_plan;
    let mut any_realloc = false;
    for model in graph.model_names() {
        let calls = graph.calls_of_model(model);
        for w in calls.windows(2) {
            if plan.assignment(w[0]) != plan.assignment(w[1]) {
                any_realloc = true;
            }
        }
    }
    assert!(
        any_realloc,
        "searched plan should exploit parameter reallocation"
    );
    // And the runtime engine must charge reallocation time for it.
    let report = exp.run(plan, 2).unwrap();
    let realloc = report
        .run
        .category_totals
        .iter()
        .find(|(c, _)| *c == Category::Realloc)
        .unwrap()
        .1;
    assert!(realloc > 0.0);
    // The paper's Fig. 11 note: the broadcasts are minor next to compute.
    let compute = report
        .run
        .category_totals
        .iter()
        .find(|(c, _)| *c == Category::Compute)
        .unwrap()
        .1;
    assert!(
        realloc < 0.1 * compute,
        "realloc {realloc} vs compute {compute}"
    );
}

#[test]
fn parallel_chains_match_or_beat_single_chain() {
    let (est, space, _) = setup(1, 128);
    let cfg = McmcConfig {
        max_steps: 1_500,
        time_limit: Duration::from_secs(60),
        record_trace: false,
        ..McmcConfig::default()
    };
    let single = search(&est, &space, &cfg);
    let multi = parallel_search(&est, &space, &cfg, 3);
    assert!(multi.best_time_cost <= single.best_time_cost + 1e-9);
    assert!(multi.feasible);
}

#[test]
fn greedy_seed_is_never_better_than_search_output() {
    let (est, space, _) = setup(2, 512);
    let greedy = greedy_plan(&est, &space);
    let cfg = McmcConfig {
        max_steps: 3_000,
        time_limit: Duration::from_secs(60),
        record_trace: false,
        ..McmcConfig::default()
    };
    let result = search(&est, &space, &cfg);
    assert!(est.cost(&result.best_plan) <= est.cost(&greedy) + 1e-9);
}

#[test]
fn heuristic_plan_is_feasible_at_every_weak_scaling_point() {
    for (nodes, size, batch) in [
        (2u32, "7b", 512u64),
        (4, "13b", 1024),
        (8, "34b", 2048),
        (16, "70b", 4096),
    ] {
        let exp = Experiment::ppo(
            ClusterSpec::h100(nodes),
            ModelSpec::by_size(size).unwrap(),
            ModelSpec::llama3_7b().critic(),
            RlhfConfig::instruct_gpt(batch),
        )
        .with_quick_profile();
        let (est, _) = exp.prepare();
        let plan = exp.plan_heuristic().unwrap();
        assert!(
            est.mem_ok(&plan),
            "{size} heuristic should fit {nodes} nodes"
        );
    }
}
