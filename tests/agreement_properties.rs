//! Property-style integration tests: over randomly drawn symmetric plans,
//! the estimator and the runtime engine must agree within a calibrated
//! bound, memory accounting must be consistent, and reallocation must be
//! charged exactly when layouts change.

use proptest::prelude::*;
use real_core::prelude::*;
use real_core::real_dataflow::SpecChoice;
use real_core::real_estimator::PlanPricer;
use real_core::real_util::DeterministicRng;
use std::sync::OnceLock;

fn setup(batch: u64) -> (ClusterSpec, DataflowGraph, Estimator) {
    let cluster = ClusterSpec::h100(2);
    let actor = ModelSpec::llama3_7b();
    let critic = actor.critic();
    let graph = algo::ppo(&actor, &critic, &algo::RlhfConfig::instruct_gpt(batch));
    let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 3);
    let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
    let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
    (cluster, graph, est)
}

/// Draws a random valid assignment for a call from the pruned option space.
fn random_plan(
    rng: &mut DeterministicRng,
    space: &SearchSpace,
    graph: &DataflowGraph,
    cluster: &ClusterSpec,
) -> ExecutionPlan {
    let assignments: Vec<CallAssignment> = (0..graph.n_calls())
        .map(|c| {
            let opts = space.options(c);
            opts[(rng.next_u64() % opts.len() as u64) as usize]
        })
        .collect();
    ExecutionPlan::new(graph, cluster, assignments).expect("options validate")
}

#[test]
fn estimator_and_runtime_agree_on_random_feasible_plans() {
    let (cluster, graph, est) = setup(256);
    let space = SearchSpace::build(&cluster, &graph, PruneLevel::Aggressive);
    let engine = RuntimeEngine::new(
        cluster.clone(),
        graph.clone(),
        EngineConfig::deterministic(),
    );
    let mut rng = DeterministicRng::from_seed(2024);

    let mut checked = 0;
    let mut attempts = 0;
    while checked < 8 && attempts < 200 {
        attempts += 1;
        let plan = random_plan(&mut rng, &space, &graph, &cluster);
        if !est.mem_ok(&plan) {
            continue;
        }
        let estimated = est.time_cost(&plan);
        let measured = engine
            .run(&plan, 2)
            .expect("estimator said it fits")
            .iter_time;
        let rel = ((estimated - measured) / measured).abs();
        // Random plans include pathological shapes the closed forms track
        // less tightly than searched/heuristic plans; allow 40%.
        assert!(
            rel < 0.40,
            "plan diverged {rel:.2}: est {estimated:.1} vs run {measured:.1}\n{}",
            plan.render(&graph)
        );
        checked += 1;
    }
    assert!(checked >= 8, "found only {checked} feasible random plans");
}

#[test]
fn memcheck_is_consistent_between_estimator_and_engine() {
    let (cluster, graph, est) = setup(128);
    let space = SearchSpace::build(&cluster, &graph, PruneLevel::Moderate);
    let engine = RuntimeEngine::new(
        cluster.clone(),
        graph.clone(),
        EngineConfig::deterministic(),
    );
    let mut rng = DeterministicRng::from_seed(7);
    for _ in 0..40 {
        let plan = random_plan(&mut rng, &space, &graph, &cluster);
        let est_ok = est.mem_ok(&plan);
        let run = engine.run(&plan, 1);
        // Engine (no zero3/dist-optim models) must agree exactly with the
        // estimator's MaxMem verdict.
        assert_eq!(
            est_ok,
            run.is_ok(),
            "memcheck mismatch:\n{}",
            plan.render(&graph)
        );
    }
}

#[test]
fn realloc_charged_iff_layouts_differ() {
    let (cluster, graph, est) = setup(128);
    let space = SearchSpace::build(&cluster, &graph, PruneLevel::Aggressive);
    let engine = RuntimeEngine::new(
        cluster.clone(),
        graph.clone(),
        EngineConfig::deterministic(),
    );
    let mut rng = DeterministicRng::from_seed(99);

    let mut seen_with = false;
    let mut seen_without = false;
    let mut attempts = 0;
    while (!seen_with || !seen_without) && attempts < 300 {
        attempts += 1;
        let plan = random_plan(&mut rng, &space, &graph, &cluster);
        if !est.mem_ok(&plan) {
            continue;
        }
        let mut layouts_change = false;
        for model in graph.model_names() {
            let calls = graph.calls_of_model(model);
            for w in calls.windows(2) {
                if plan.assignment(w[0]) != plan.assignment(w[1]) {
                    layouts_change = true;
                }
            }
        }
        let report = engine.run(&plan, 2).expect("fits");
        let realloc = report
            .category_totals
            .iter()
            .find(|(c, _)| *c == Category::Realloc)
            .unwrap()
            .1;
        if layouts_change {
            assert!(realloc > 0.0, "layout change must charge reallocation");
            seen_with = true;
        } else {
            assert_eq!(realloc, 0.0, "no layout change, no reallocation");
            seen_without = true;
        }
    }
    assert!(seen_with, "never drew a plan with a layout change");
    // Symmetric plans (no change) are rare random draws; tolerate missing.
}

#[test]
fn iteration_time_is_stable_across_iteration_counts() {
    let (cluster, graph, est) = setup(128);
    let space = SearchSpace::build(&cluster, &graph, PruneLevel::Aggressive);
    let engine = RuntimeEngine::new(
        cluster.clone(),
        graph.clone(),
        EngineConfig::deterministic(),
    );
    let mut rng = DeterministicRng::from_seed(5);
    let plan = loop {
        let p = random_plan(&mut rng, &space, &graph, &cluster);
        if est.mem_ok(&p) {
            break p;
        }
    };
    let t2 = engine.run(&plan, 2).unwrap().iter_time;
    let t4 = engine.run(&plan, 4).unwrap().iter_time;
    let rel = ((t2 - t4) / t4).abs();
    assert!(
        rel < 0.05,
        "steady-state iteration time unstable: {t2} vs {t4}"
    );
}

/// Quick profiles of the 7B actor and the 7B critic/reward model on 1 and
/// 2 nodes, shared by every case of the property below.
fn profiles(nodes: u32) -> Vec<ProfileDb> {
    static PROFILES: OnceLock<Vec<Vec<ProfileDb>>> = OnceLock::new();
    let all = PROFILES.get_or_init(|| {
        (1..=2)
            .map(|n| {
                let mut profiler = Profiler::new(ClusterSpec::h100(n), ProfileConfig::quick(), 3);
                let actor = ModelSpec::llama3_7b();
                vec![profiler.profile(&actor), profiler.profile(&actor.critic())]
            })
            .collect()
    });
    all[nodes as usize - 1].clone()
}

/// The six `algo` templates on a 7B actor with a 7B critic/reward model.
fn template(i: usize, batch: u64) -> DataflowGraph {
    let (actor, other) = (ModelSpec::llama3_7b(), ModelSpec::llama3_7b().critic());
    let cfg = RlhfConfig::instruct_gpt(batch);
    match i {
        0 => algo::ppo(&actor, &other, &cfg),
        1 => algo::dpo(&actor, &cfg),
        2 => algo::grpo(&actor, &other, &cfg),
        3 => algo::remax(&actor, &other, &cfg),
        4 => algo::raft(&actor, &other, &cfg),
        _ => algo::iterative_dpo(&actor, &other, &cfg),
    }
}

proptest! {
    /// Over random plans of every template on 1–2 nodes, half of them
    /// speculating with a 1B draft on a sub-node mesh: the memoized fast
    /// path and the per-GPU reference agree on `MaxMem` to the byte, and
    /// the engine refuses to run a plan with `OutOfMemory` exactly when
    /// the estimator says it does not fit.
    #[test]
    fn memory_verdicts_agree_on_every_template(
        which in 0usize..6,
        nodes in 1u32..3,
        picks in proptest::collection::vec(0usize..10_000, 12),
        speculate in 0u32..2,
        draft in (0u32..2, 0u32..3, 0u32..8, 1u32..6),
    ) {
        let cluster = ClusterSpec::h100(nodes);
        let graph = template(which, 32);
        let est = Estimator::new(cluster.clone(), graph.clone(), profiles(nodes)).unwrap();
        let space = SearchSpace::build(&cluster, &graph, PruneLevel::Moderate);
        let assignments = (0..graph.n_calls())
            .map(|c| space.options(c)[picks[c] % space.options(c).len()])
            .collect();
        let mut plan = ExecutionPlan::new(&graph, &cluster, assignments).unwrap();
        let gen = graph
            .iter()
            .find(|(_, c)| matches!(c.call_type, CallType::Generate { .. }))
            .map(|(id, _)| id);
        if let (1, Some(gen)) = (speculate, gen) {
            let (node, width_pow, slot, k) = draft;
            let width = 1 << width_pow;
            let start = (slot * width) % cluster.gpus_per_node;
            let mesh = DeviceMesh::sub_node(&cluster, node % nodes, start, width).unwrap();
            let choice = SpecChoice {
                config: SpecDecodeConfig {
                    draft_model: ModelSpec::llama3_1b(),
                    speculation_len: k,
                    acceptance_curve: AcceptanceCurve::Constant(0.8),
                },
                assignment: CallAssignment::new(
                    mesh,
                    ParallelStrategy::new(1, width, 1, 1).unwrap(),
                )
                .unwrap(),
            };
            plan = plan.with_spec(gen, Some(choice)).unwrap();
        }

        prop_assert_eq!(PlanPricer::new(&est).max_mem(&plan), est.max_mem(&plan));
        let fits = est.mem_ok(&plan);
        let engine = RuntimeEngine::new(cluster, graph.clone(), EngineConfig::deterministic());
        match engine.run(&plan, 1) {
            Ok(_) => prop_assert!(fits, "ran a plan MaxMem rejects:\n{}", plan.render(&graph)),
            Err(RunError::OutOfMemory { .. }) => {
                prop_assert!(!fits, "OOM on a plan MaxMem admits:\n{}", plan.render(&graph))
            }
            Err(e) => panic!("unexpected run error {e}:\n{}", plan.render(&graph)),
        }
    }
}
