//! User-defined dataflows: DSL round-trips, validation, the shipped example
//! graphs, and asynchronous off-policy execution (determinism, staleness
//! bounds under faults, measured gen/train overlap).
//!
//! Integration-test CWD is `crates/core`, so the example graphs live at
//! `../../examples/graphs/`.

use real_core::prelude::*;
use real_dataflow::spec::OffPolicyDecl;

const EXAMPLES: &str = "../../examples/graphs";

fn read_example(name: &str) -> String {
    std::fs::read_to_string(format!("{EXAMPLES}/{name}")).expect("shipped example graph")
}

fn pretty(spec: &GraphSpec) -> String {
    let mut s = serde_json::to_string_pretty(spec).unwrap();
    s.push('\n');
    s
}

// ---------------------------------------------------------------------------
// Constructor <-> DSL round-trips
// ---------------------------------------------------------------------------

#[test]
fn constructors_round_trip_byte_identically() {
    let actor = ModelSpec::llama3_7b();
    let critic = actor.critic();
    let cfg = RlhfConfig::instruct_gpt(128);
    for (name, graph) in [
        ("ppo", algo::ppo(&actor, &critic, &cfg)),
        ("dpo", algo::dpo(&actor, &cfg)),
        ("grpo", algo::grpo(&actor, &critic, &cfg)),
        ("remax", algo::remax(&actor, &critic, &cfg)),
    ] {
        let spec = GraphSpec::from_graph(&graph);
        let rebuilt = spec.build().unwrap_or_else(|e| panic!("{name}: {e}")).graph;
        assert_eq!(rebuilt, graph, "{name}: graph round-trip");
        assert_eq!(
            serde_json::to_string(&rebuilt).unwrap(),
            serde_json::to_string(&graph).unwrap(),
            "{name}: byte-identical serialization"
        );
        // The DSL document itself also survives a serde round-trip.
        let json = pretty(&spec);
        let back: GraphSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(pretty(&back), json, "{name}: spec JSON stable");
    }
}

#[test]
fn ppo_example_file_is_the_constructor_export() {
    let graph = algo::ppo(
        &ModelSpec::llama3_7b(),
        &ModelSpec::llama3_7b().critic(),
        &RlhfConfig::instruct_gpt(128),
    );
    let expected = pretty(&GraphSpec::from_graph(&graph));
    assert_eq!(
        read_example("ppo.json"),
        expected,
        "examples/graphs/ppo.json drifted from algo::ppo; regenerate it with \
         GraphSpec::from_graph"
    );
    let spec: GraphSpec = serde_json::from_str(&read_example("ppo.json")).unwrap();
    assert_eq!(spec.build().unwrap().graph, graph);
}

#[test]
fn async_ppo_example_file_is_the_constructor_export_plus_offpolicy() {
    let graph = algo::ppo(
        &ModelSpec::llama3_7b(),
        &ModelSpec::llama3_7b().critic(),
        &RlhfConfig::instruct_gpt(32),
    );
    let mut spec = GraphSpec::from_graph(&graph);
    spec.offpolicy = Some(OffPolicyDecl {
        enabled: Some(true),
        staleness: Some(1),
    });
    assert_eq!(read_example("async-ppo.json"), pretty(&spec));
    let built: GraphSpec = serde_json::from_str(&read_example("async-ppo.json")).unwrap();
    let built = built.build().unwrap();
    assert_eq!(built.graph, graph);
    assert_eq!(built.async_staleness, Some(1));
}

#[test]
fn rm_ensemble_example_fans_two_reward_models_into_training() {
    let spec: GraphSpec = serde_json::from_str(&read_example("rm-ensemble.json")).unwrap();
    let built = spec.build().unwrap();
    assert_eq!(built.graph.n_calls(), 5);
    // Both reward inferences feed actor_train, so they are siblings that
    // can run concurrently once the rollout lands.
    let train = built.graph.find("actor_train").unwrap();
    let inputs = &built.graph.call(train).input_data;
    assert!(inputs.contains(&"rewards_a".to_string()));
    assert!(inputs.contains(&"rewards_b".to_string()));
    assert_eq!(
        built.hooks,
        vec![CallHook {
            call: "reward_b_inf".to_string(),
            pre_secs: 0.0,
            post_secs: 0.25,
        }]
    );
}

// ---------------------------------------------------------------------------
// Validation rejections, end to end through JSON
// ---------------------------------------------------------------------------

#[test]
fn invalid_documents_are_rejected_with_named_offenders() {
    // (document, substring the error must mention)
    let table: &[(&str, &str)] = &[
        (r#"{"models": [], "calls": []}"#, "no models"),
        (
            r#"{"models": [{"role": "m", "arch": "8t"}], "calls": []}"#,
            "unknown arch `8t`",
        ),
        (
            r#"{"models": [{"role": "m", "arch": "7b"}],
                "calls": [{"name": "c", "model": "ghost", "kind": "inf",
                           "batch": 8, "seq_len": 64}]}"#,
            "undeclared model `ghost`",
        ),
        (
            r#"{"models": [{"role": "m", "arch": "7b"}],
                "calls": [{"name": "c", "model": "m", "kind": "dream",
                           "batch": 8, "seq_len": 64}]}"#,
            "unknown kind `dream`",
        ),
        (
            r#"{"models": [{"role": "m", "arch": "7b"}],
                "calls": [{"name": "c", "model": "m", "kind": "gen",
                           "batch": 8, "prompt_len": 64}]}"#,
            "missing `gen_len`",
        ),
        (
            r#"{"models": [{"role": "m", "arch": "7b"}],
                "calls": [{"name": "c", "model": "m", "kind": "inf",
                           "batch": 8, "seq_len": 64, "inputs": ["sq"]}]}"#,
            "consumes `sq`",
        ),
        (
            r#"{"models": [{"role": "m", "arch": "7b"}],
                "calls": [{"name": "c", "model": "m", "kind": "inf",
                           "batch": 8, "seq_len": 64}],
                "offpolicy": {"staleness": 99}}"#,
            "staleness 99 exceeds",
        ),
    ];
    for (doc, needle) in table {
        let spec: GraphSpec = serde_json::from_str(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        let err = spec.build().expect_err("document must be rejected");
        assert!(
            err.to_string().contains(needle),
            "expected {needle:?} in {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// Asynchronous off-policy execution
// ---------------------------------------------------------------------------

fn async_experiment() -> (Experiment, ExecutionPlan) {
    let spec: GraphSpec = serde_json::from_str(&read_example("async-ppo.json")).unwrap();
    let exp = Experiment::from_graph(ClusterSpec::h100(1), &spec)
        .unwrap()
        .with_quick_profile();
    let plan = split_plan(&exp);
    (exp, plan)
}

/// The placement the async tests overlap on: every relaxed generation call
/// on the node's first half, everything else on the second half, each on
/// its canonical strategy.
fn split_plan(exp: &Experiment) -> ExecutionPlan {
    let (cluster, graph) = (exp.cluster(), exp.graph());
    let gen = DeviceMesh::sub_node(cluster, 0, 0, 4).unwrap();
    let rest = DeviceMesh::sub_node(cluster, 0, 4, 4).unwrap();
    let sources = graph.snapshot_sources();
    let assignments = graph
        .iter()
        .map(|(id, call)| {
            let mesh = if sources[id.0].is_some() { gen } else { rest };
            probe::fit_assignment(&mesh, call).expect("a half node fits every call")
        })
        .collect();
    ExecutionPlan::new(graph, cluster, assignments).unwrap()
}

#[test]
fn async_runs_are_byte_identical_across_repeats() {
    let (exp, plan) = async_experiment();
    let a = exp.run(&plan, 4).unwrap();
    let b = exp.run(&plan, 4).unwrap();
    assert_eq!(format!("{:?}", a.run), format!("{:?}", b.run));
    assert_eq!(a.render(exp.graph()), b.render(exp.graph()));
}

#[test]
fn async_run_overlaps_generation_with_training() {
    let (exp, plan) = async_experiment();
    let report = exp.run(&plan, 4).unwrap();
    let stats = &report.run.async_stats;
    assert!(stats.relaxed_calls > 0, "gen calls must be relaxed");
    assert!(stats.gen_train_overlap_secs > 0.0);
    assert!(stats.max_observed_staleness <= stats.staleness_bound);
    // Realized (GPU-occupancy) overlap, as the profiler attributes it.
    let realized = real_core::real_obs::phase_overlap(
        &exp.spans(&report),
        real_core::real_obs::Phase::Generation,
        real_core::real_obs::Phase::Training,
    );
    assert!(realized > 0.0, "split plan must overlap gen and train");
    // And it pays: the same plan run synchronously is no faster.
    let sync = Experiment::from_graph(
        ClusterSpec::h100(1),
        &serde_json::from_str::<GraphSpec>(&read_example("ppo.json")).unwrap(),
    )
    .unwrap();
    assert_eq!(sync.async_staleness(), None);
}

#[test]
fn staleness_bound_holds_under_injected_faults() {
    let (exp, plan) = async_experiment();
    // Slow the training mesh down 3x for the first 200 virtual seconds, so
    // generation would race far ahead if the bound were not enforced.
    let faults = FaultPlan::new(7)
        .slowdown(4, 0.0, 200.0, 3.0)
        .slowdown(5, 0.0, 200.0, 3.0);
    let exp = exp.with_fault_plan(faults);
    let report = exp.run(&plan, 6).unwrap();
    let stats = &report.run.async_stats;
    assert_eq!(stats.staleness_bound, 1);
    assert!(
        stats.max_observed_staleness <= 1,
        "observed {} exceeds bound",
        stats.max_observed_staleness
    );
    // gen(i) never dispatches before actor_train(i - 2) completed.
    let train_end = |iter: usize| {
        report
            .run
            .timings
            .iter()
            .filter(|t| t.call_name == "actor_train" && t.iter == iter)
            .map(|t| t.end)
            .fold(0.0, f64::max)
    };
    let mut gated = 0;
    for t in &report.run.timings {
        if t.call_name == "actor_gen" && t.iter >= 2 {
            assert!(
                t.start >= train_end(t.iter - 2),
                "gen({}) dispatched at {} before its staleness gate {}",
                t.iter,
                t.start,
                train_end(t.iter - 2)
            );
            gated += 1;
        }
    }
    assert!(gated > 0, "expected staleness-gated generation calls");
}

// ---------------------------------------------------------------------------
// DSL hooks on every runtime path
// ---------------------------------------------------------------------------

/// Call timings as exact bit patterns.
fn timing_bits(timings: &[real_core::real_runtime::CallTiming]) -> Vec<(String, usize, u64, u64)> {
    timings
        .iter()
        .map(|t| {
            (
                t.call_name.clone(),
                t.iter,
                t.start.to_bits(),
                t.end.to_bits(),
            )
        })
        .collect()
}

#[test]
fn dsl_hooks_apply_on_every_runtime_path() {
    use real_core::real_estimator::MemoStats;
    use real_core::real_runtime::TenantSession;
    use real_sched::{Schedule, TenantPlan};

    // Jitter-free and fixed-length, so every path draws identical events
    // whatever RNG substream it uses.
    let spec: GraphSpec = serde_json::from_str(&read_example("rm-ensemble.json")).unwrap();
    let exp = Experiment::from_graph(ClusterSpec::h100(1), &spec)
        .unwrap()
        .with_quick_profile();
    let config = EngineConfig {
        jitter_sigma: 0.0,
        gen_len_cv: 0.0,
        ..exp.engine_config().clone()
    };
    assert!(
        !config.call_hooks.is_empty(),
        "rm-ensemble ships a post hook"
    );
    let (cluster, graph, plan) = (
        exp.cluster().clone(),
        exp.graph().clone(),
        exp.plan_heuristic().unwrap(),
    );
    let iters = 3;
    let base = RuntimeEngine::new(cluster.clone(), graph.clone(), config.clone())
        .run(&plan, iters)
        .unwrap();
    let hookless = RuntimeEngine::new(
        cluster.clone(),
        graph.clone(),
        config.clone().with_call_hooks(Vec::new()),
    )
    .run(&plan, iters)
    .unwrap();
    assert_ne!(
        timing_bits(&hookless.timings),
        timing_bits(&base.timings),
        "the hook must delay reward_b_inf's completion"
    );

    // `--replan` with an empty fault schedule.
    let (est, _) = exp.prepare();
    let replanned = RuntimeEngine::new(
        cluster.clone(),
        graph.clone(),
        config.clone().with_fault_plan(FaultPlan::new(1)),
    )
    .run_replan(&plan, iters, &ReplanPolicy::new(), &est)
    .unwrap();
    assert_eq!(timing_bits(&replanned.timings), timing_bits(&base.timings));

    // `real sched`: a 1-tenant schedule on the whole cluster.
    let solo = TenantPlan {
        name: "solo".into(),
        id: 0,
        priority: 1.0,
        iterations: iters,
        allocation: DeviceMesh::full(&cluster),
        plan: plan.clone(),
        est_step_secs: 0.0,
        solo_step_secs: 0.0,
        time_shared: false,
    };
    let tenant = Tenant::new("solo", 0, exp.clone().with_engine_config(config.clone()))
        .with_iterations(iters);
    let schedule = Schedule::new(vec![solo], false, MemoStats::default());
    let multi = real_serve::run_schedule(&cluster, &[tenant], schedule, 1).unwrap();
    assert_eq!(
        timing_bits(&multi.reports[0].timings),
        timing_bits(&base.timings)
    );

    // `real serve`: per-iteration durations of a session.
    let mut session = TenantSession::new(&cluster, graph, plan, config, 0, iters, 1).unwrap();
    let durations: Vec<u64> = (0..iters)
        .map(|_| session.run_iteration().to_bits())
        .collect();
    let iter_end = |i: usize| {
        base.timings
            .iter()
            .filter(|t| t.iter == i)
            .map(|t| t.end)
            .fold(0.0, f64::max)
    };
    let expected: Vec<u64> = (0..iters)
        .map(|i| {
            let start = if i == 0 { 0.0 } else { iter_end(i - 1) };
            (iter_end(i) - start).to_bits()
        })
        .collect();
    assert_eq!(durations, expected);
}
