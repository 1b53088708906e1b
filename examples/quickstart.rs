//! Quickstart: plan and run a PPO experiment with automatic execution-plan
//! search — the Rust analogue of the paper's Appendix-B `@auto` decorator.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use real_core::prelude::*;
use std::time::Duration;

fn main() {
    // A 7B actor with a 7B critic on one 8xH100 node, InstructGPT-style
    // workload (batch 128 prompts, context 2048 = 1024 prompt + 1024
    // generated, 8 PPO mini-batches).
    let cluster = ClusterSpec::h100(1);
    let actor = ModelSpec::llama3_7b();
    let critic = actor.critic();
    let experiment =
        Experiment::ppo(cluster, actor, critic, RlhfConfig::instruct_gpt(128)).with_seed(42);

    // Profile the simulated hardware and search for an execution plan.
    let search_cfg = McmcConfig {
        max_steps: 20_000,
        time_limit: Duration::from_secs(15),
        ..McmcConfig::default()
    };
    println!("searching for an execution plan ...");
    let planned = experiment
        .plan_auto(&search_cfg)
        .expect("a feasible plan exists for this workload");
    println!(
        "profiling took {:.0}s (simulated); search visited {} plans, accepted {} ({:.0}% rate)",
        planned.profiling_secs,
        planned.search.base.steps,
        planned.search.base.accepted,
        planned.search.base.acceptance_rate() * 100.0,
    );

    // Compare against the pre-training-style symmetric heuristic.
    let heuristic = experiment.plan_heuristic().unwrap();
    let searched_report = experiment
        .run(&planned.plan, 3)
        .expect("searched plan fits");
    let heuristic_report = experiment.run(&heuristic, 3).expect("heuristic plan fits");

    println!("\n=== searched plan ===");
    println!("{}", searched_report.render(experiment.graph()));
    println!("=== heuristic plan ===");
    println!("{}", heuristic_report.render(experiment.graph()));

    let gain = searched_report.tokens_per_sec / heuristic_report.tokens_per_sec - 1.0;
    println!(
        "searched plan is {:.0}% faster than the symmetric heuristic",
        gain * 100.0
    );
}
