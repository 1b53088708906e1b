//! The plan search's behaviour contract: exact f64 bits of every search
//! entry point's results on small step-bounded fixtures, pinned in a
//! committed JSON fixture.
//!
//! Each case drives one public entry point that prices plans — `search`,
//! `search_with_memo` (twice on one memo), `search_warm` under a degraded
//! health overlay, `resume`, `parallel_search_on`, `search_speculative`
//! (one chain, and three chains on two threads), `brute_force`, `compare`,
//! `Scheduler::plan` and `price_template` — and records the chosen plan, every price and step time as its IEEE-754 bit
//! pattern, feasibility and the chain's step/acceptance counts. One more
//! case pins `Estimator::time_cost_instrumented`'s full metrics snapshot
//! (Algorithm 1's queue counters) on a searched asymmetric plan with
//! reallocation and transfer nodes and on a speculative plan. Two more
//! cases run `search` on PPO 70B + 7B critic at cluster scale: 1024 GPUs
//! (2,000 steps), and 128 GPUs with a one-step chain whose greedy start is
//! out of memory, so the polish starts from an infeasible incumbent. Memo
//! hit/miss counters are deliberately left out: they describe how a price
//! was found, not what it is. A refactor of the pricing path must leave
//! the fixture byte-identical. Regenerate deliberately with
//! `BLESS=1 cargo test -p real-core --test search_contract`.

use real_core::prelude::*;
use real_core::real_dataflow::SpecChoice;
use real_core::real_search::brute::BruteResult;
use real_core::real_search::{parallel_search_on, search_with_memo};
use real_sched::{SchedConfig, Scheduler};
use serde_json::Value;
use std::time::Duration;

mod contract;

use contract::{assert_matches_fixture, f64_bits, obj, to_bits_json};

fn result_json(r: &SearchResult) -> Value {
    obj(vec![
        ("best_plan", to_bits_json(&r.best_plan)),
        ("best_time_cost", f64_bits(r.best_time_cost)),
        ("feasible", Value::Bool(r.feasible)),
        ("steps", Value::from(r.steps)),
        ("accepted", Value::from(r.accepted)),
        ("chain", to_bits_json(&r.chain)),
    ])
}

fn brute_json(r: &BruteResult) -> Value {
    obj(vec![
        ("best_plan", to_bits_json(&r.best_plan)),
        ("best_time_cost", f64_bits(r.best_time_cost)),
        ("evaluated", Value::from(r.evaluated)),
        ("pruned", Value::from(r.pruned)),
        ("exhaustive", Value::Bool(r.exhaustive)),
    ])
}

fn comparison_json(c: &PlanComparison) -> Value {
    let diffs = c
        .diffs
        .iter()
        .map(|d| {
            Value::String(format!(
                "{} {} -> {} {:016x}",
                d.call_name,
                d.from,
                d.to,
                d.time_after_swap.to_bits()
            ))
        })
        .chain(c.spec_diffs.iter().map(|d| {
            Value::String(format!(
                "spec {} {} -> {} {:016x}",
                d.call_name,
                d.from,
                d.to,
                d.time_after_swap.to_bits()
            ))
        }))
        .collect();
    obj(vec![
        ("base_time", f64_bits(c.base_time)),
        ("target_time", f64_bits(c.target_time)),
        ("diffs", Value::Array(diffs)),
    ])
}

/// Step-bounded search budget: results depend on seeds only.
fn steps_cfg(seed: u64, max_steps: u64) -> McmcConfig {
    McmcConfig {
        max_steps,
        time_limit: Duration::from_secs(86_400),
        seed,
        record_trace: false,
        ..McmcConfig::default()
    }
}

fn estimator(cluster: &ClusterSpec, graph: &DataflowGraph, seed: u64) -> Estimator {
    let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), seed);
    let mut names: Vec<&str> = Vec::new();
    let mut profiles = Vec::new();
    for call in graph.calls() {
        if !names.contains(&call.model.name.as_str()) {
            names.push(call.model.name.as_str());
            profiles.push(profiler.profile(&call.model));
        }
    }
    Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap()
}

/// One-node PPO 7B + 7B critic: the workload most search cases share.
fn one_node() -> (Estimator, SearchSpace) {
    let cluster = ClusterSpec::h100(1);
    let actor = ModelSpec::llama3_7b();
    let graph = algo::ppo(&actor, &actor.critic(), &RlhfConfig::instruct_gpt(128));
    let est = estimator(&cluster, &graph, 21);
    let space = SearchSpace::build(&cluster, &graph, PruneLevel::Aggressive);
    (est, space)
}

fn chain_cases() -> Vec<(&'static str, Value)> {
    let (est, space) = one_node();
    let searched = search(&est, &space, &steps_cfg(3, 400));

    let mut memo = CostMemo::new();
    let first = search_with_memo(&est, &space, &steps_cfg(5, 300), &mut memo);
    let second = search_with_memo(&est, &space, &steps_cfg(5, 300), &mut memo);

    let checkpoint = search(&est, &space, &steps_cfg(7, 200)).checkpoint();
    let resumed = resume(&est, &space, &steps_cfg(7, 400), &checkpoint);

    let parallel = parallel_search_on(
        &est,
        &space,
        &steps_cfg(11, 200),
        3,
        2,
        &mut CostMemo::new(),
    );

    let brute = brute_force(
        &est,
        &space,
        &BruteConfig {
            top_k: 3,
            time_limit: Duration::from_secs(86_400),
        },
    );

    let explained = compare(&est, &heuristic_plan(&est).unwrap(), &searched.best_plan);

    vec![
        ("search", result_json(&searched)),
        (
            "search_with_memo",
            Value::Array(vec![result_json(&first), result_json(&second)]),
        ),
        ("resume", result_json(&resumed)),
        ("parallel_search_on", result_json(&parallel)),
        ("brute_force", brute_json(&brute)),
        ("compare", comparison_json(&explained)),
    ]
}

fn warm_case() -> (&'static str, Value) {
    let cluster = ClusterSpec::h100(2);
    let actor = ModelSpec::llama3_7b();
    let graph = algo::ppo(&actor, &actor.critic(), &RlhfConfig::instruct_gpt(256));
    let est = estimator(&cluster, &graph, 21);
    let incumbent = heuristic_plan(&est).unwrap();
    let mut health = ClusterHealth::healthy(&cluster);
    health.mark_dead(GpuId(3));
    health.mark_slow(GpuId(12), 2.0);
    let shrunken = SearchSpace::try_build_on(
        &cluster,
        &graph,
        PruneLevel::Aggressive,
        &health.surviving_meshes(),
    )
    .unwrap();
    let degraded = est.with_health(health);
    let cfg = steps_cfg(17, 300);
    let warm = search_warm(&degraded, &shrunken, &cfg, &incumbent, &mut CostMemo::new());
    ("search_warm_degraded", result_json(&warm))
}

/// The speculative search over `n_chains` chains on `threads` workers: the
/// plain phase merges the chains, and the refinement starts from their
/// winner.
fn speculative_case(name: &'static str, n_chains: usize, threads: usize) -> (&'static str, Value) {
    let cluster = ClusterSpec::h100(2);
    let actor = ModelSpec::llama3_7b();
    let rlhf = RlhfConfig {
        gen_len: 3072,
        prompt_len: 256,
        ..RlhfConfig::instruct_gpt(32)
    };
    let graph = algo::ppo(&actor, &actor.critic(), &rlhf);
    let est = estimator(&cluster, &graph, 11);
    let space = SearchSpace::build(&cluster, &graph, PruneLevel::Aggressive);
    let menu = SpecMenu::build(
        &cluster,
        vec![ModelSpec::llama3_1b()],
        vec![2, 4, 6, 8],
        SpecTask::RlhfRollout,
    )
    .with_curve(AcceptanceCurve::Constant(0.8));
    let r = search_speculative(
        &est,
        &space,
        &menu,
        &steps_cfg(5, 400),
        n_chains,
        threads,
        &mut CostMemo::new(),
    );
    (name, speculative_json(&r))
}

fn speculative_json(r: &SpecSearchResult) -> Value {
    let best = r.best();
    let (spec_steps, spec_accepted) = r.refined.as_ref().map_or((0, 0), |r| (r.steps, r.accepted));
    obj(vec![
        ("base", result_json(&r.base)),
        ("best_plan", to_bits_json(&best.best_plan)),
        ("best_time_cost", f64_bits(best.best_time_cost)),
        ("feasible", Value::Bool(best.feasible)),
        ("spec_steps", Value::from(spec_steps)),
        ("spec_accepted", Value::from(spec_accepted)),
    ])
}

fn dpo(cluster: &ClusterSpec, batch: u64) -> Experiment {
    Experiment::dpo(
        cluster.clone(),
        ModelSpec::llama3_7b(),
        RlhfConfig::instruct_gpt(batch),
    )
    .with_quick_profile()
}

fn sched_case() -> (&'static str, Value) {
    let cluster = ClusterSpec::h100(2);
    let tenants = vec![
        Tenant::new("small", 1, dpo(&cluster, 64)),
        Tenant::new("large", 2, dpo(&cluster, 256)).with_priority(2.0),
    ];
    let schedule = Scheduler::new(cluster)
        .with_config(SchedConfig {
            score_steps: 100,
            refine_steps: 200,
            ..SchedConfig::default()
        })
        .plan(&tenants)
        .unwrap();
    let placements = schedule
        .tenants
        .iter()
        .map(|t| {
            obj(vec![
                ("name", Value::from(t.name.as_str())),
                ("allocation", Value::from(t.allocation.to_string())),
                ("plan", to_bits_json(&t.plan)),
                ("est_step_secs", f64_bits(t.est_step_secs)),
                ("solo_step_secs", f64_bits(t.solo_step_secs)),
                ("time_shared", Value::Bool(t.time_shared)),
            ])
        })
        .collect();
    (
        "sched_plan",
        obj(vec![
            ("tenants", Value::Array(placements)),
            ("weighted_makespan", f64_bits(schedule.weighted_makespan)),
            ("max_stretch", f64_bits(schedule.max_stretch)),
            ("oversubscribed", Value::Bool(schedule.oversubscribed)),
            ("stretch_relaxed", Value::Bool(schedule.stretch_relaxed)),
        ]),
    )
}

fn price_template_case() -> (&'static str, Value) {
    let cluster = ClusterSpec::h100(2);
    let (est, _) = dpo(&cluster, 128).prepare();
    let mut memo = CostMemo::new();
    let prices = real_serve::price_template(&est, 0, 7, 100, &mut memo).unwrap();
    let candidates = prices
        .candidates
        .iter()
        .map(|c| {
            obj(vec![
                ("mesh", Value::from(c.mesh.to_string())),
                ("plan", to_bits_json(&c.plan)),
                ("step_secs", f64_bits(c.step_secs)),
            ])
        })
        .collect();
    (
        "price_template",
        obj(vec![
            ("candidates", Value::Array(candidates)),
            ("solo_step_secs", f64_bits(prices.solo_step_secs)),
            ("prologue_secs", f64_bits(prices.prologue_secs)),
        ]),
    )
}

/// Algorithm 1's instrumented run on two plans: a searched asymmetric
/// 2-node PPO plan (reallocation and transfer nodes present) and the same
/// plan decoding `actor_gen` speculatively on a draft sub-mesh (a call node
/// on two meshes). Every metric of the snapshot is pinned, counters
/// included.
fn instrumented_case() -> (&'static str, Value) {
    let cluster = ClusterSpec::h100(2);
    let actor = ModelSpec::llama3_7b();
    let graph = algo::ppo(&actor, &actor.critic(), &RlhfConfig::instruct_gpt(256));
    let est = estimator(&cluster, &graph, 21);
    let space = SearchSpace::build(&cluster, &graph, PruneLevel::Aggressive);
    let searched = search(&est, &space, &steps_cfg(23, 300)).best_plan;
    let choice = SpecChoice {
        config: SpecDecodeConfig {
            draft_model: ModelSpec::llama3_1b(),
            speculation_len: 4,
            acceptance_curve: AcceptanceCurve::Constant(0.8),
        },
        assignment: CallAssignment::new(
            DeviceMesh::sub_node(&cluster, 1, 0, 2).unwrap(),
            ParallelStrategy::new(1, 2, 1, 1).unwrap(),
        )
        .unwrap(),
    };
    let speculative = searched
        .with_spec(graph.find("actor_gen").unwrap(), Some(choice))
        .unwrap();
    let snapshot = |plan: &ExecutionPlan| {
        let mut metrics = MetricsRegistry::new();
        let time_cost = est.time_cost_instrumented(plan, &mut metrics);
        obj(vec![
            ("plan", to_bits_json(plan)),
            ("time_cost", f64_bits(time_cost)),
            ("metrics", to_bits_json(&metrics.snapshot())),
        ])
    };
    (
        "time_cost_instrumented",
        Value::Array(vec![snapshot(&searched), snapshot(&speculative)]),
    )
}

/// PPO 70B + 7B critic on `nodes` nodes, quick-profiled (seed 1), searched
/// over its default (Aggressive) space for `max_steps` steps at seed 1.
fn ppo_70b_search(nodes: u32, batch: u64, max_steps: u64) -> Value {
    let exp = Experiment::ppo(
        ClusterSpec::h100(nodes),
        ModelSpec::llama3_70b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(batch),
    )
    .with_quick_profile();
    let (est, _) = exp.prepare();
    let space = exp.try_search_space().unwrap();
    result_json(&search(&est, &space, &steps_cfg(1, max_steps)))
}

fn scale_cases() -> Vec<(&'static str, Value)> {
    vec![
        ("search_1024_gpus", ppo_70b_search(128, 8192, 2_000)),
        ("search_infeasible_incumbent", ppo_70b_search(16, 4096, 1)),
    ]
}

#[test]
fn search_results_match_the_contract_fixture() {
    let cases: Vec<(String, Value)> = chain_cases()
        .into_iter()
        .chain([
            warm_case(),
            speculative_case("search_speculative", 1, 1),
            speculative_case("search_speculative_chains", 3, 2),
            sched_case(),
            price_template_case(),
            instrumented_case(),
        ])
        .chain(scale_cases())
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    assert_matches_fixture("search_contract.json", "search results", cases);
}
