//! Runs the four §8.1 baseline systems plus ReaL on one workload — a
//! single-row version of the paper's Fig. 7.
//!
//! ```sh
//! cargo run --release --example baseline_shootout
//! ```

use real_core::prelude::*;
use real_core::real_util::Table;
use std::time::Duration;

fn main() {
    let cluster = ClusterSpec::h100(2);
    let actor = ModelSpec::llama3_7b();
    let critic = actor.critic();
    let cfg = RlhfConfig::instruct_gpt(512);
    let experiment = Experiment::ppo(cluster.clone(), actor, critic, cfg).with_seed(3);
    let graph = experiment.graph().clone();

    let mut table = Table::new(vec!["system", "tokens/s", "iteration (s)"]);
    let base = EngineConfig::default();
    for (name, setup) in baselines::all(&cluster, &graph, &base) {
        match setup {
            Ok(b) => {
                let engine = RuntimeEngine::new(cluster.clone(), graph.clone(), b.config);
                match engine.run(&b.plan, 2) {
                    Ok(run) => {
                        let tput = run.tokens_per_sec(cfg.batch_size * cfg.context_len());
                        table.row(vec![
                            name.into(),
                            format!("{tput:.0}"),
                            format!("{:.1}", run.iter_time),
                        ]);
                    }
                    Err(e) => {
                        table.row(vec![name.into(), "OOM".into(), e.to_string()]);
                    }
                }
            }
            Err(e) => {
                table.row(vec![name.into(), "OOM".into(), e]);
            }
        }
    }

    let heuristic = experiment.plan_heuristic().unwrap();
    let h = experiment.run(&heuristic, 2).expect("heuristic fits");
    table.row(vec![
        "ReaL-Heuristic".into(),
        format!("{:.0}", h.tokens_per_sec),
        format!("{:.1}", h.run.iter_time),
    ]);

    let search_cfg = McmcConfig {
        max_steps: 30_000,
        time_limit: Duration::from_secs(20),
        ..McmcConfig::default()
    };
    let planned = experiment.plan_auto(&search_cfg).expect("feasible plan");
    let r = experiment
        .run(&planned.plan, 2)
        .expect("searched plan fits");
    table.row(vec![
        "ReaL (searched)".into(),
        format!("{:.0}", r.tokens_per_sec),
        format!("{:.1}", r.run.iter_time),
    ]);

    println!("{table}");
}
