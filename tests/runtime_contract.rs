//! The runtime's behaviour contract: exact f64 bits of every entry point's
//! results on small jittered fixtures, pinned in a committed JSON fixture.
//!
//! Each case drives one public entry point of `real-runtime` — `run`
//! (plain, speculative, faulted), `run_async`, `run_replan` (dead-worker
//! and straggler triggers), `run_multi` (disjoint co-tenant, committed
//! elastic growth) and `TenantSession` (iterations, cross-mesh resume,
//! checkpoint/restore) — and records timings, totals, fault/re-plan/async
//! statistics, the master log and a digest of the kernel trace, with every
//! float written as its IEEE-754 bit pattern. A `memory` section pins the
//! §5.1 memory accounting as exact byte counts: every baseline's per-GPU
//! static and per-call active bytes, its run's `mem_peak` and
//! `static_utilization`, `Estimator::max_mem` of a searched and a
//! speculative plan, the per-call option counts of `SearchSpace` at every
//! pruning level (plus, for PPO 70B + 7B critic on 16 and 128 nodes, each
//! call's option count and a digest of its option list), and two
//! heuristic plans. Two `serve` cases pin every bit of a `ServeReport`:
//! one preemption with a same-mesh resume, and a burst whose victim resumes
//! on another mesh and pays a reallocation prologue. A refactor of the
//! runtime or of the serving loop must leave the fixture byte-identical. Regenerate deliberately with
//! `BLESS=1 cargo test -p real-core --test runtime_contract`.

use real_core::prelude::*;
use real_core::real_estimator::maxmem::mem_profile;
use real_core::real_runtime::{
    run_multi, MasterLog, SessionCheckpoint, TenantElastic, TenantRun, TenantSession,
};
use real_serve::{ArrivalSpec, TemplateSpec, WorkloadSpec};
use serde_json::Value;

mod contract;

use contract::{assert_matches_fixture, bits, f64_bits, obj, to_bits_json, Fnv};

/// 64-bit FNV-1a over the trace's `(label, gpu, start, end)` tuples.
fn trace_digest(trace: &Trace) -> String {
    let mut h = Fnv::new();
    for e in trace.events() {
        h.feed(e.label.as_bytes());
        h.feed(&(e.gpu as u64).to_le_bytes());
        h.feed(&e.start.to_bits().to_le_bytes());
        h.feed(&e.end.to_bits().to_le_bytes());
    }
    h.hex()
}

/// One line per request and response, in log order.
fn master_log_json(log: &MasterLog) -> Value {
    let requests = log.requests.iter().map(|q| {
        let locations: Vec<String> = q
            .data_locations
            .iter()
            .map(|d| format!("{}<-{}@{:?}", d.key, d.produced_by, d.shard_leaders))
            .collect();
        Value::String(format!(
            "{} {}#{} {:016x} x{} [{}]",
            q.call.0,
            q.handle,
            q.iter,
            q.dispatch_time.to_bits(),
            q.worker_count,
            locations.join(" ")
        ))
    });
    let responses = log.responses.iter().map(|p| {
        Value::String(format!(
            "{}#{} {:016x}",
            p.call.0,
            p.iter,
            p.completed_at.to_bits()
        ))
    });
    obj(vec![
        ("requests", Value::Array(requests.collect())),
        ("responses", Value::Array(responses.collect())),
    ])
}

fn report_json(r: &RunReport) -> Value {
    let timings = r
        .timings
        .iter()
        .map(|t| {
            Value::String(format!(
                "{}#{} {:016x} {:016x}",
                t.call_name,
                t.iter,
                t.start.to_bits(),
                t.end.to_bits()
            ))
        })
        .collect();
    let totals = r
        .category_totals
        .iter()
        .map(|(c, v)| Value::String(format!("{c:?} {:016x}", v.to_bits())))
        .collect();
    obj(vec![
        ("iterations", Value::from(r.iterations as u64)),
        ("total_time", f64_bits(r.total_time)),
        ("iter_time", f64_bits(r.iter_time)),
        ("idle_total", f64_bits(r.idle_total)),
        ("category_totals", Value::Array(totals)),
        ("timings", Value::Array(timings)),
        ("faults", bits(serde_json::to_value(&r.faults))),
        ("replan", bits(serde_json::to_value(&r.replan))),
        ("async_stats", bits(serde_json::to_value(&r.async_stats))),
        ("master_log", master_log_json(&r.master_log)),
        ("trace_events", Value::from(r.trace.events().len() as u64)),
        ("trace_digest", Value::String(trace_digest(&r.trace))),
    ])
}

/// Jittered engine config with tracing on.
fn jittered(seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        trace_capacity: 1 << 16,
        ..EngineConfig::default()
    }
}

fn ppo_graph(batch: u64) -> DataflowGraph {
    let actor = ModelSpec::llama3_7b();
    algo::ppo(&actor, &actor.critic(), &RlhfConfig::instruct_gpt(batch))
}

fn assignment(mesh: DeviceMesh, dp: u32, tp: u32, pp: u32, mbs: u32) -> CallAssignment {
    CallAssignment::new(mesh, ParallelStrategy::new(dp, tp, pp, mbs).unwrap()).unwrap()
}

/// Every call on the full cluster except actor training, which moves to
/// node 0 with another shape: reallocations and transfers on every
/// iteration.
fn asymmetric_plan(cluster: &ClusterSpec, graph: &DataflowGraph) -> ExecutionPlan {
    let full = assignment(DeviceMesh::full(cluster), 2, 8, 1, 4);
    let mut assignments = vec![full; graph.n_calls()];
    let train = graph.find("actor_train").unwrap();
    assignments[train.0] = assignment(DeviceMesh::whole_nodes(cluster, 0, 1).unwrap(), 1, 4, 2, 8);
    ExecutionPlan::new(graph, cluster, assignments).unwrap()
}

fn symmetric_plan(cluster: &ClusterSpec, graph: &DataflowGraph) -> ExecutionPlan {
    let a = assignment(DeviceMesh::full(cluster), 1, 8, 1, 8);
    ExecutionPlan::new(graph, cluster, vec![a; graph.n_calls()]).unwrap()
}

/// Actor generation speculates with a 1B draft on two GPUs of `node`.
fn with_draft(
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    plan: ExecutionPlan,
    node: u32,
) -> ExecutionPlan {
    let choice = real_core::real_dataflow::SpecChoice {
        config: SpecDecodeConfig {
            draft_model: ModelSpec::llama3_1b(),
            speculation_len: 4,
            acceptance_curve: AcceptanceCurve::Constant(0.8),
        },
        assignment: assignment(
            DeviceMesh::sub_node(cluster, node, 0, 2).unwrap(),
            1,
            2,
            1,
            1,
        ),
    };
    let gen = graph.find("actor_gen").unwrap();
    plan.with_spec(gen, Some(choice)).unwrap()
}

/// Generation on node 0's first half, everything else on the second half.
fn split_plan(cluster: &ClusterSpec, graph: &DataflowGraph) -> ExecutionPlan {
    let gen = DeviceMesh::sub_node(cluster, 0, 0, 4).unwrap();
    let rest = DeviceMesh::sub_node(cluster, 0, 4, 4).unwrap();
    let assignments = graph
        .calls()
        .iter()
        .map(|c| {
            let mesh = if matches!(c.call_type, CallType::Generate { .. }) {
                gen
            } else {
                rest
            };
            assignment(mesh, 1, 4, 1, 4)
        })
        .collect();
    ExecutionPlan::new(graph, cluster, assignments).unwrap()
}

fn engine_cases() -> Vec<(&'static str, Value)> {
    let mut cases = Vec::new();

    let two = ClusterSpec::h100(2);
    let graph = ppo_graph(64);
    let plan = asymmetric_plan(&two, &graph);
    let eng = RuntimeEngine::new(two.clone(), graph.clone(), jittered(5));
    cases.push(("run_plain", report_json(&eng.run(&plan, 2).unwrap())));

    let spec = with_draft(
        &two,
        &graph,
        ExecutionPlan::new(
            &graph,
            &two,
            vec![
                assignment(DeviceMesh::whole_nodes(&two, 0, 1).unwrap(), 1, 8, 1, 8);
                graph.n_calls()
            ],
        )
        .unwrap(),
        1,
    );
    cases.push(("run_speculative", report_json(&eng.run(&spec, 2).unwrap())));

    let one = ClusterSpec::h100(1);
    let graph1 = ppo_graph(64);
    let sym = symmetric_plan(&one, &graph1);
    let faults = FaultPlan::new(5)
        .crash(3, 9.0, 2.0)
        .slowdown(5, 2.0, 40.0, 2.5);
    let cfg = jittered(9).with_fault_plan(faults);
    let faulted = RuntimeEngine::new(one.clone(), graph1.clone(), cfg)
        .run(&sym, 2)
        .unwrap();
    assert!(faulted.faults.crashes >= 1, "{:?}", faulted.faults);
    cases.push(("run_crash_slowdown", report_json(&faulted)));

    let graph16 = ppo_graph(16);
    let split = split_plan(&one, &graph16);
    let eng = RuntimeEngine::new(one.clone(), graph16.clone(), jittered(13));
    cases.push((
        "run_async_s0",
        report_json(&eng.run_async(&split, 4, 0).unwrap()),
    ));
    let split_spec = with_draft(&one, &graph16, split.clone(), 0);
    let asy = eng.run_async(&split_spec, 4, 1).unwrap();
    assert!(asy.async_stats.relaxed_calls > 0);
    cases.push(("run_async_s1_speculative", report_json(&asy)));
    let cfg = jittered(13).with_fault_plan(FaultPlan::new(3).slowdown(1, 0.0, 30.0, 1.5));
    let asy = RuntimeEngine::new(one.clone(), graph16.clone(), cfg)
        .run_async(&split, 4, 1)
        .unwrap();
    cases.push(("run_async_s1_slowdown", report_json(&asy)));
    cases
}

/// One h100 node running quick-profiled PPO under `faults`.
fn replan_experiment(faults: FaultPlan) -> Experiment {
    Experiment::ppo(
        ClusterSpec::h100(1),
        ModelSpec::llama3_7b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(32),
    )
    .with_quick_profile()
    .with_seed(17)
    .with_engine_config(EngineConfig {
        fault_plan: Some(faults),
        ..jittered(17)
    })
}

fn replan_cases() -> Vec<(&'static str, Value)> {
    let mut cases = Vec::new();
    let policy = ReplanPolicy::new().with_search_steps(300);

    let exp = replan_experiment(FaultPlan::new(23).crash(3, 12.0, 1.0e6))
        .with_replan_policy(policy.clone());
    let plan = exp.plan_heuristic().unwrap();
    let dead = exp.run(&plan, 2).unwrap().run;
    assert!(
        dead.replan.switches >= 1
            && matches!(
                dead.replan.events[0].reason,
                ReplanReason::DeadWorker { .. }
            ),
        "{:?}",
        dead.replan
    );
    cases.push(("replan_dead_worker", report_json(&dead)));

    let exp = replan_experiment(FaultPlan::new(29).slowdown(2, 0.0, 1.0e6, 6.0))
        .with_replan_policy(policy);
    let slow = exp.run(&plan, 3).unwrap().run;
    assert!(
        slow.replan
            .events
            .iter()
            .any(|e| matches!(e.reason, ReplanReason::Straggler { .. })),
        "{:?}",
        slow.replan
    );
    cases.push(("replan_straggler", report_json(&slow)));
    cases
}

fn tenant_on(cluster: &ClusterSpec, graph: &DataflowGraph, id: u64, node: u32) -> TenantRun {
    let mesh = DeviceMesh::whole_nodes(cluster, node, 1).unwrap();
    let a = assignment(mesh, 1, 8, 1, 4);
    TenantRun {
        id,
        name: format!("tenant{id}"),
        graph: graph.clone(),
        plan: ExecutionPlan::new(graph, cluster, vec![a; graph.n_calls()]).unwrap(),
        config: jittered(0),
        iterations: 2,
        allocation: mesh.gpus().collect(),
        solo_step_secs: 0.0,
        elastic: None,
    }
}

fn multi_cases() -> Vec<(&'static str, Value)> {
    let mut cases = Vec::new();
    let cluster = ClusterSpec::h100(2);

    let t0 = tenant_on(&cluster, &ppo_graph(64), 0, 0);
    let mut t1 = tenant_on(&cluster, &ppo_graph(32), 1, 1);
    t1.config.fault_plan = Some(FaultPlan::new(4).crash(10, 5.0, 3.0));
    let reports = run_multi(&cluster, &[t0, t1], 7).unwrap();
    for (name, r) in ["multi_disjoint_t0", "multi_disjoint_t1"]
        .into_iter()
        .zip(&reports)
    {
        cases.push((name, report_json(r)));
    }

    let dpo = |batch| {
        Experiment::dpo(
            cluster.clone(),
            ModelSpec::llama3_7b(),
            RlhfConfig::instruct_gpt(batch),
        )
        .with_quick_profile()
    };
    let long_exp = dpo(64);
    let mut long = tenant_on(&cluster, long_exp.graph(), 0, 0);
    long.iterations = 4;
    long.solo_step_secs = 1.0;
    long.elastic = Some(TenantElastic {
        policy: ReplanPolicy {
            min_speedup: 1.0,
            min_benefit_ratio: 0.0,
            search_steps: 500,
            ..ReplanPolicy::default()
        },
        estimator: long_exp.prepare().0,
    });
    let mut short = tenant_on(&cluster, dpo(32).graph(), 1, 1);
    short.iterations = 1;
    let reports = run_multi(&cluster, &[long, short], 3).unwrap();
    assert!(reports[0].replan.switches >= 1, "{:?}", reports[0].replan);
    for (name, r) in ["multi_elastic_long", "multi_elastic_short"]
        .into_iter()
        .zip(&reports)
    {
        cases.push((name, report_json(r)));
    }
    cases
}

fn session_json(s: &TenantSession) -> Value {
    obj(vec![
        ("completed", Value::from(s.completed() as u64)),
        (
            "iter_secs",
            Value::Array(s.iter_secs().iter().map(|&d| f64_bits(d)).collect()),
        ),
        ("rel_time", f64_bits(s.rel_time())),
        ("realloc_secs", f64_bits(s.realloc_secs())),
        ("resumes", Value::from(s.resumes() as u64)),
        ("faults", bits(serde_json::to_value(s.fault_stats()))),
        ("checkpoint", bits(serde_json::to_value(&s.checkpoint()))),
    ])
}

fn session_cases() -> Vec<(&'static str, Value)> {
    let cluster = ClusterSpec::h100(2);
    let graph = algo::dpo(&ModelSpec::llama3_7b(), &RlhfConfig::instruct_gpt(32));
    let plan_on = |node| {
        let a = assignment(
            DeviceMesh::whole_nodes(&cluster, node, 1).unwrap(),
            1,
            8,
            1,
            4,
        );
        ExecutionPlan::new(&graph, &cluster, vec![a; graph.n_calls()]).unwrap()
    };
    let config = jittered(0).with_fault_plan(FaultPlan::new(8).slowdown(2, 1.0, 20.0, 2.0));
    let mut s =
        TenantSession::new(&cluster, graph.clone(), plan_on(0), config.clone(), 3, 5, 7).unwrap();
    s.run_iteration();
    s.run_iteration();
    let ckpt: SessionCheckpoint = s.checkpoint();
    let same = s.plan().clone();
    assert_eq!(s.resume_on(&same), 0.0);
    s.resume_on(&plan_on(1));
    s.run_iteration();
    let moved = session_json(&s);
    s.resume_on(&plan_on(0));
    s.run_iteration();
    let back = session_json(&s);

    let mut restored = TenantSession::restore(&cluster, graph, config, &ckpt, 7).unwrap();
    restored.run_iteration();
    vec![
        ("session_cross_mesh", moved),
        ("session_round_trip", back),
        ("session_restored", session_json(&restored)),
    ]
}

/// Per-GPU static bytes, per-call active bytes, `mem_peak` and
/// `static_utilization` of every baseline on PPO 7B + 7B critic.
fn baseline_memory(nodes: u32) -> Value {
    let cluster = ClusterSpec::h100(nodes);
    let graph = ppo_graph(128);
    let rows = baselines::all(&cluster, &graph, &EngineConfig::deterministic())
        .into_iter()
        .map(|(name, setup)| {
            let row = match setup {
                Err(e) => Value::String(format!("error: {e}")),
                Ok(s) => {
                    let (zero3, dist) = (&s.config.zero3_models, &s.config.dist_optim_models);
                    let profile = mem_profile(&cluster, &graph, &s.plan, zero3, dist);
                    let active = graph
                        .iter()
                        .map(|(id, def)| {
                            let bytes = profile.call_active[id.0];
                            Value::String(format!("{} {bytes}", def.call_name))
                        })
                        .collect();
                    let engine = RuntimeEngine::new(cluster.clone(), graph.clone(), s.config);
                    let run = match engine.run(&s.plan, 1) {
                        Ok(r) => obj(vec![
                            ("mem_peak", Value::from(r.mem_peak)),
                            ("static_utilization", f64_bits(r.static_utilization)),
                        ]),
                        Err(e) => Value::String(format!("error: {e}")),
                    };
                    obj(vec![
                        (
                            "static_bytes",
                            Value::Array(profile.static_bytes.iter().map(|&b| b.into()).collect()),
                        ),
                        ("call_active", Value::Array(active)),
                        ("run", run),
                    ])
                }
            };
            (name.to_string(), row)
        })
        .collect();
    Value::Object(rows)
}

/// Per-call option counts of `SearchSpace::try_build` at every pruning
/// level.
fn option_counts(cluster: &ClusterSpec, graph: &DataflowGraph) -> Value {
    let levels = [
        ("light", PruneLevel::Light),
        ("moderate", PruneLevel::Moderate),
        ("aggressive", PruneLevel::Aggressive),
    ];
    let rows = levels.into_iter().map(|(name, level)| {
        let counts = match SearchSpace::try_build(cluster, graph, level) {
            Ok(space) => Value::Array(
                (0..space.n_calls())
                    .map(|c| space.options(c).len().into())
                    .collect(),
            ),
            Err(e) => Value::String(format!("error: {e}")),
        };
        (name, counts)
    });
    obj(rows.collect())
}

/// Per call, `<options> <FNV digest of the option list>` of
/// `SearchSpace::try_build` at every pruning level: the digest feeds each
/// option's mesh and strategy in list order, so it pins the order too.
fn option_digests(cluster: &ClusterSpec, graph: &DataflowGraph) -> Value {
    let levels = [
        ("light", PruneLevel::Light),
        ("moderate", PruneLevel::Moderate),
        ("aggressive", PruneLevel::Aggressive),
    ];
    let rows = levels.into_iter().map(|(name, level)| {
        let lists = match SearchSpace::try_build(cluster, graph, level) {
            Ok(space) => Value::Array(
                (0..space.n_calls())
                    .map(|c| {
                        let mut h = Fnv::new();
                        for a in space.options(c) {
                            let (m, s) = (&a.mesh, &a.strategy);
                            for word in [
                                m.node_start(),
                                m.n_nodes(),
                                m.gpu_start(),
                                m.gpu_width(),
                                s.dp(),
                                s.tp(),
                                s.pp(),
                                s.micro_batches(),
                            ] {
                                h.feed(&word.to_le_bytes());
                            }
                        }
                        Value::String(format!("{} {}", space.options(c).len(), h.hex()))
                    })
                    .collect(),
            ),
            Err(e) => Value::String(format!("error: {e}")),
        };
        (name, lists)
    });
    obj(rows.collect())
}

fn heuristic_assignments(exp: &Experiment) -> Value {
    let plan = exp.plan_heuristic().unwrap();
    let rows = exp
        .graph()
        .iter()
        .map(|(id, def)| Value::String(format!("{} {}", def.call_name, plan.assignment(id))));
    Value::Array(rows.collect())
}

fn memory_cases() -> Vec<(&'static str, Value)> {
    let two = ClusterSpec::h100(2);
    let exp = Experiment::ppo(
        two.clone(),
        ModelSpec::llama3_7b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(128),
    )
    .with_quick_profile()
    .with_seed(11);
    let (est, _) = exp.prepare();
    let space = SearchSpace::build(&two, exp.graph(), PruneLevel::Aggressive);
    let cfg = McmcConfig {
        max_steps: 300,
        time_limit: std::time::Duration::from_secs(86_400),
        seed: 4,
        record_trace: false,
        ..McmcConfig::default()
    };
    let searched = search(&est, &space, &cfg).best_plan;
    let speculative = with_draft(&two, exp.graph(), searched.clone(), 1);
    let estimator = obj(vec![
        ("searched", Value::from(est.max_mem(&searched))),
        ("speculative", Value::from(est.max_mem(&speculative))),
    ]);

    let dpo = algo::dpo(&ModelSpec::llama3_7b(), &RlhfConfig::instruct_gpt(128));
    let options = obj(vec![
        ("ppo", option_counts(&two, exp.graph())),
        ("dpo", option_counts(&two, &dpo)),
    ]);
    let ppo_70b = |batch| {
        algo::ppo(
            &ModelSpec::llama3_70b(),
            &ModelSpec::llama3_7b().critic(),
            &RlhfConfig::instruct_gpt(batch),
        )
    };
    let option_lists = obj(vec![
        (
            "ppo_70b_16_nodes",
            option_digests(&ClusterSpec::h100(16), &ppo_70b(4096)),
        ),
        (
            "ppo_70b_128_nodes",
            option_digests(&ClusterSpec::h100(128), &ppo_70b(8192)),
        ),
    ]);

    let seventy = Experiment::ppo(
        ClusterSpec::h100(4),
        ModelSpec::llama3_70b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(256),
    )
    .with_quick_profile();
    let heuristic = obj(vec![
        ("ppo_7b_2_nodes", heuristic_assignments(&exp)),
        ("ppo_70b_4_nodes", heuristic_assignments(&seventy)),
    ]);

    let memory = obj(vec![
        ("baselines_1_node", baseline_memory(1)),
        ("baselines_2_nodes", baseline_memory(2)),
        ("estimator_max_mem", estimator),
        ("search_space_options", options),
        ("search_space_option_lists", option_lists),
        ("heuristic_plans", heuristic),
    ]);
    vec![("memory", memory)]
}

fn serve_template(
    name: &str,
    algo: &str,
    actor: &str,
    priority: f64,
    iterations: usize,
    batch: u64,
) -> TemplateSpec {
    TemplateSpec {
        tenant: real_sched::TenantSpec {
            name: name.into(),
            id: None,
            priority: Some(priority),
            algo: Some(algo.into()),
            actor: Some(actor.into()),
            critic: None,
            batch: Some(batch),
            graph: None,
            iterations: Some(iterations),
            faults: None,
            elastic: None,
        },
        weight: None,
    }
}

/// Two nodes, one arrival per `templates` entry at `times`, in order.
fn serve_trace(
    seed: u64,
    times: Vec<f64>,
    templates: Vec<TemplateSpec>,
) -> real_serve::ServeReport {
    let spec = WorkloadSpec {
        nodes: 2,
        seed: Some(seed),
        horizon_secs: Some(100_000.0),
        arrivals: ArrivalSpec::Trace {
            templates: Some((0..times.len()).collect()),
            times_secs: times,
        },
        templates,
        admission: None,
    };
    real_serve::serve(&spec, &real_sched::GraphSet::new()).unwrap()
}

fn serve_cases() -> Vec<(&'static str, Value)> {
    // The workload of `trace_contract`'s serve case: the victim resumes on
    // its own mesh, for free.
    let one = serve_trace(
        5,
        vec![0.0, 5.0],
        vec![
            serve_template("lowpri", "dpo", "7b", 0.1, 4, 64),
            serve_template("highpri", "dpo", "7b", 10.0, 1, 32),
        ],
    );
    assert_eq!(one.preemptions, 1, "{one:?}");

    // Two small ReMax tenants take a node each; the burst preempts the
    // long one, whose home is still leased when the short one finishes,
    // so it resumes on the other node and pays a prologue.
    let burst = serve_trace(
        1,
        vec![0.0, 0.1, 1.0],
        vec![
            serve_template("short", "remax", "1b", 0.1, 2, 4),
            serve_template("long", "remax", "1b", 0.1, 10, 4),
            serve_template("burst", "dpo", "7b", 10.0, 3, 64),
        ],
    );
    assert!(burst.preemptions > 0, "{burst:?}");
    assert!(burst.resumes > 0, "{burst:?}");
    assert!(
        burst.tenants.iter().any(|t| t.realloc_secs > 0.0),
        "{burst:?}"
    );
    vec![
        ("serve_one_preemption", to_bits_json(&one)),
        ("serve_cross_mesh_resume", to_bits_json(&burst)),
    ]
}

#[test]
fn runtime_results_match_the_contract_fixture() {
    let cases: Vec<(String, Value)> = engine_cases()
        .into_iter()
        .chain(replan_cases())
        .chain(multi_cases())
        .chain(session_cases())
        .chain(memory_cases())
        .chain(serve_cases())
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    assert_matches_fixture("runtime_contract.json", "runtime results", cases);
}
