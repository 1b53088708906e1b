//! Integration tests for the §8.1 baseline emulations and the §8.3
//! beyond-PPO algorithms.

use real_core::prelude::*;
use std::time::Duration;

fn quick_search(steps: u64) -> McmcConfig {
    McmcConfig {
        max_steps: steps,
        time_limit: Duration::from_secs(30),
        ..McmcConfig::default()
    }
}

#[test]
fn all_baselines_run_for_7b_on_two_nodes() {
    let cluster = ClusterSpec::h100(2);
    let actor = ModelSpec::llama3_7b();
    let graph = algo::ppo(&actor, &actor.critic(), &RlhfConfig::instruct_gpt(512));
    let base = EngineConfig::deterministic();
    let mut times = std::collections::HashMap::new();
    for (name, setup) in baselines::all(&cluster, &graph, &base) {
        let setup = setup.unwrap_or_else(|e| panic!("{name}: {e}"));
        let engine = RuntimeEngine::new(cluster.clone(), graph.clone(), setup.config);
        let report = engine
            .run(&setup.plan, 2)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        times.insert(name, report.iter_time);
    }
    // The paper's ordering at small scale: veRL (concurrent work) is the
    // strongest baseline.
    let verl = times["veRL"];
    for (name, t) in &times {
        assert!(verl <= t * 1.05, "veRL {verl} vs {name} {t}");
    }
}

#[test]
fn real_beats_every_baseline() {
    let cluster = ClusterSpec::h100(2);
    let actor = ModelSpec::llama3_7b();
    let critic = actor.critic();
    let cfg = RlhfConfig::instruct_gpt(512);
    let exp = Experiment::ppo(cluster.clone(), actor, critic, cfg)
        .with_quick_profile()
        .with_seed(99);
    let graph = exp.graph().clone();

    let planned = exp.plan_auto(&quick_search(6_000)).expect("feasible plan");
    let real_time = exp.run(&planned.plan, 2).unwrap().run.iter_time;

    for (name, setup) in baselines::all(&cluster, &graph, &EngineConfig::default()) {
        let Ok(setup) = setup else { continue };
        let engine = RuntimeEngine::new(cluster.clone(), graph.clone(), setup.config);
        let Ok(report) = engine.run(&setup.plan, 2) else {
            continue;
        };
        assert!(
            real_time < report.iter_time,
            "ReaL {real_time} should beat {name} {}",
            report.iter_time
        );
    }
}

#[test]
fn dschat_is_symmetric_zero3() {
    let cluster = ClusterSpec::h100(1);
    let actor = ModelSpec::llama3_7b();
    let graph = algo::ppo(&actor, &actor.critic(), &RlhfConfig::instruct_gpt(128));
    let s = baselines::dschat(&cluster, &graph, &EngineConfig::deterministic()).unwrap();
    // Symmetric: every call on the full mesh.
    for a in s.plan.assignments() {
        assert_eq!(a.mesh.n_gpus(), 8);
    }
    // All four models ZeRO-sharded; generation is the HF loop (no graphs).
    assert_eq!(s.config.zero3_models.len(), 4);
    assert!(!s.config.cuda_graph);
}

#[test]
fn openrlhf_generation_group_idles_during_training() {
    let cluster = ClusterSpec::h100(4);
    let actor = ModelSpec::llama3_7b();
    let graph = algo::ppo(&actor, &actor.critic(), &RlhfConfig::instruct_gpt(512));
    let s = baselines::openrlhf(&cluster, &graph, &EngineConfig::deterministic()).unwrap();
    let gen_mesh = s.plan.assignment(graph.find("actor_gen").unwrap()).mesh;
    let train_mesh = s.plan.assignment(graph.find("actor_train").unwrap()).mesh;
    assert!(!gen_mesh.overlaps(&train_mesh));

    // Run and check the generation group's GPUs show substantial idle time
    // (they wait for training before the next iteration).
    let engine = RuntimeEngine::new(cluster.clone(), graph.clone(), s.config);
    let report = engine.run(&s.plan, 2).unwrap();
    assert!(report.idle_total > 0.2 * report.total_time * f64::from(cluster.total_gpus()) * 0.25);
}

#[test]
fn beyond_ppo_algorithms_plan_and_run() {
    let cluster = ClusterSpec::h100(2);
    let actor = ModelSpec::llama3_7b();
    let reward = ModelSpec::llama3_7b().critic();
    let cfg = RlhfConfig::instruct_gpt(128);

    let experiments = vec![
        ("dpo", Experiment::dpo(cluster.clone(), actor.clone(), cfg)),
        (
            "remax",
            Experiment::remax(cluster.clone(), actor.clone(), reward.clone(), cfg),
        ),
        (
            "grpo",
            Experiment::grpo(
                cluster.clone(),
                actor.clone(),
                reward.clone(),
                RlhfConfig {
                    grpo_group: 4,
                    ..RlhfConfig::instruct_gpt(32)
                },
            ),
        ),
    ];
    for (name, exp) in experiments {
        let exp = exp.with_quick_profile().with_seed(7);
        let planned = exp
            .plan_auto(&quick_search(2_000))
            .unwrap_or_else(|_| panic!("{name}: no feasible plan"));
        let report = exp
            .run(&planned.plan, 2)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.run.iter_time > 0.0, "{name}");
    }
}

#[test]
fn remax_concurrent_generations_beat_serial_execution() {
    // ReaL's §8.3 ReMax gain comes from running the two generations
    // concurrently; verify a split plan beats a symmetric serial one.
    let cluster = ClusterSpec::h100(2);
    let actor = ModelSpec::llama3_7b();
    let reward = ModelSpec::llama3_7b().critic();
    let exp = Experiment::remax(cluster, actor, reward, RlhfConfig::instruct_gpt(256))
        .with_quick_profile()
        .with_seed(31);
    let heuristic = exp.plan_heuristic().unwrap();
    let heuristic_time = exp.run(&heuristic, 2).unwrap().run.iter_time;
    let planned = exp.plan_auto(&quick_search(6_000)).expect("feasible plan");
    let searched_time = exp.run(&planned.plan, 2).unwrap().run.iter_time;
    assert!(
        searched_time < heuristic_time,
        "searched {searched_time} vs heuristic {heuristic_time}"
    );
}
