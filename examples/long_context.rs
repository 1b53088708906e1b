//! Long-context scaling: the paper's Fig. 8 protocol in miniature.
//!
//! The token budget per iteration stays constant while the context length
//! grows 2048 → 8192 (batch shrinks 4x); ReaL's searched plans pull further
//! ahead of the symmetric heuristic as the context grows.
//!
//! ```sh
//! cargo run --release --example long_context
//! ```

use real_core::prelude::*;
use real_core::real_util::Table;
use std::time::Duration;

fn main() {
    let cluster = ClusterSpec::h100(2);
    let actor = ModelSpec::llama3_7b();
    let critic = actor.critic();

    let mut table = Table::new(vec![
        "context",
        "batch",
        "heuristic tok/s",
        "searched tok/s",
        "gain",
    ]);
    for factor in [1u64, 2, 4] {
        let cfg = RlhfConfig::instruct_gpt(256).with_context_scale(factor);
        let experiment =
            Experiment::ppo(cluster.clone(), actor.clone(), critic.clone(), cfg).with_seed(7);
        let search_cfg = McmcConfig {
            max_steps: 20_000,
            time_limit: Duration::from_secs(15),
            ..McmcConfig::default()
        };
        let planned = experiment.plan_auto(&search_cfg).expect("feasible plan");
        let heuristic = experiment.plan_heuristic().unwrap();

        let searched = experiment.run(&planned.plan, 2).expect("fits");
        let baseline = experiment.run(&heuristic, 2).expect("fits");
        let gain = searched.tokens_per_sec / baseline.tokens_per_sec - 1.0;
        table.row(vec![
            cfg.context_len().to_string(),
            cfg.batch_size.to_string(),
            format!("{:.0}", baseline.tokens_per_sec),
            format!("{:.0}", searched.tokens_per_sec),
            format!("{:+.0}%", gain * 100.0),
        ]);
    }
    println!("{table}");
    println!("(constant token budget per iteration; the searched advantage grows with context)");
}
