//! Ablations of the design choices DESIGN.md calls out:
//!
//! - MCMC temperature β sweep (with the scale-free relative energy),
//! - greedy-only vs MCMC vs MCMC + coordinate-descent polish,
//! - decode-chunk granularity (a pure simulation knob — results must be
//!   invariant),
//! - kernel-jitter sensitivity of the runtime engine,
//! - mesh buddy-alignment (admitting unaligned node spans grows the space
//!   without improving the plans found).
//!
//! Run: `cargo bench -p real-bench --bench ablations`

use real_bench::{ppo_experiment, Setting};
use real_core::prelude::*;
use real_core::real_model::ModelSpec;
use real_core::real_search::mcmc::search_reference;
use real_core::real_util::Table;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| name.contains(a.as_str()));

    let ablations: Vec<(&str, fn())> = vec![
        ("beta_sweep", beta_sweep),
        ("search_stages", search_stages),
        ("decode_chunk_invariance", decode_chunk_invariance),
        ("jitter_sensitivity", jitter_sensitivity),
        ("limitations_gen_length_skew", generation_length_skew),
        ("whatif_fabric", whatif_fabric),
        ("extra_algorithms", extra_algorithms),
        ("fault_rates", fault_rates),
        ("replan_ablation", replan_ablation),
        ("tenant_packing", tenant_packing),
        ("serve_admission", serve_admission),
        // "async_overlap" also matches its gate; pass "async_overlap_gate"
        // to run only the gate.
        ("async_overlap", async_overlap),
        ("async_overlap_gate", async_overlap_gate),
        // Note: the "search_throughput" argument also matches the gate
        // (substring match); pass "search_throughput_gate" to run only it.
        ("search_throughput", search_throughput),
        ("search_throughput_gate", search_throughput_gate),
        ("spec_decode", spec_decode),
        ("spec_decode_gate", spec_decode_gate),
    ];
    for (name, f) in ablations {
        if !want(name) {
            continue;
        }
        let t = Instant::now();
        println!("\n================== ablation: {name} ==================");
        f();
        println!("[{name} done in {:.1}s]", t.elapsed().as_secs_f64());
    }
}

fn setting() -> Setting {
    Setting::new(2, ModelSpec::llama3_7b(), 512)
}

fn beta_sweep() {
    let exp = ppo_experiment(&setting());
    let (est, _) = exp.prepare();
    let space = exp.search_space();
    let mut table = Table::new(vec!["beta", "best TimeCost (s)", "acceptance"]);
    for beta in [0.5, 2.0, 6.0, 12.0, 48.0] {
        let cfg = McmcConfig {
            beta,
            max_steps: 10_000,
            time_limit: Duration::from_secs(30),
            record_trace: false,
            seed: 5,
        };
        let r = search(&est, &space, &cfg);
        table.row(vec![
            format!("{beta}"),
            format!("{:.2}", r.best_time_cost),
            format!("{:.0}%", r.acceptance_rate() * 100.0),
        ]);
    }
    println!("{table}\n(too cold wanders, too hot hill-climbs into local minima)");
}

fn search_stages() {
    let exp = ppo_experiment(&setting());
    let (est, _) = exp.prepare();
    let space = exp.search_space();
    let mut table = Table::new(vec!["stage", "TimeCost (s)", "feasible"]);

    let greedy = greedy_plan(&est, &space);
    table.row(vec![
        "greedy seed".into(),
        format!("{:.2}", est.time_cost(&greedy)),
        est.mem_ok(&greedy).to_string(),
    ]);

    // MCMC without the polish: emulate by cutting the time budget right at
    // the step budget so the polish loop cannot run.
    let chain_only = search(
        &est,
        &space,
        &McmcConfig {
            max_steps: u64::MAX,
            time_limit: Duration::from_secs(6),
            record_trace: false,
            seed: 5,
            ..McmcConfig::default()
        },
    );
    table.row(vec![
        "MCMC chain (6s)".into(),
        format!("{:.2}", chain_only.best_time_cost),
        chain_only.feasible.to_string(),
    ]);

    let full = search(
        &est,
        &space,
        &McmcConfig {
            max_steps: 10_000,
            time_limit: Duration::from_secs(30),
            record_trace: false,
            seed: 5,
            ..McmcConfig::default()
        },
    );
    table.row(vec![
        "MCMC + polish".into(),
        format!("{:.2}", full.best_time_cost),
        full.feasible.to_string(),
    ]);
    println!("{table}");
}

fn decode_chunk_invariance() {
    let s = setting();
    let exp = ppo_experiment(&s);
    let heuristic = exp.plan_heuristic().unwrap();
    let mut table = Table::new(vec!["decode_chunk", "iteration (s)"]);
    let mut base: Option<f64> = None;
    for chunk in [8u64, 32, 128] {
        let cfg = EngineConfig {
            decode_chunk: chunk,
            jitter_sigma: 0.0,
            ..EngineConfig::default()
        };
        let exp = ppo_experiment(&s).with_engine_config(cfg);
        let t = exp.run(&heuristic, 2).expect("fits").run.iter_time;
        table.row(vec![chunk.to_string(), format!("{t:.2}")]);
        let b = *base.get_or_insert(t);
        assert!(
            (t - b).abs() / b < 0.05,
            "decode chunking must not change measured time: {t} vs {b}"
        );
    }
    println!("{table}\n(simulation granularity knob — duration-equivalent by construction)");
}

fn jitter_sensitivity() {
    let s = setting();
    let exp = ppo_experiment(&s);
    let heuristic = exp.plan_heuristic().unwrap();
    let mut table = Table::new(vec!["jitter sigma", "iteration (s)"]);
    for sigma in [0.0, 0.02, 0.1] {
        let cfg = EngineConfig {
            jitter_sigma: sigma,
            ..EngineConfig::default()
        };
        let exp = ppo_experiment(&s).with_engine_config(cfg);
        let t = exp.run(&heuristic, 3).expect("fits").run.iter_time;
        table.row(vec![format!("{sigma}"), format!("{t:.2}")]);
    }
    println!("{table}\n(measurements are stable under realistic kernel-time noise)");
}

/// §7 limitation experiment: the estimator assumes predictable function
/// calls; skewed generation lengths degrade its accuracy. (Registered in
/// `main` via the `limitations` name.)
fn generation_length_skew() {
    let s = setting();
    let exp = ppo_experiment(&s);
    let (est, _) = exp.prepare();
    let heuristic = exp.plan_heuristic().unwrap();
    let estimated = est.time_cost(&heuristic);
    let mut table = Table::new(vec![
        "gen-length CV",
        "measured iter (s)",
        "estimator rel err",
    ]);
    for cv in [0.0, 0.2, 0.5, 1.0] {
        let cfg = EngineConfig {
            gen_len_cv: cv,
            ..EngineConfig::default()
        };
        let exp = ppo_experiment(&s).with_engine_config(cfg);
        let measured = exp.run(&heuristic, 3).expect("fits").run.iter_time;
        let rel = ((estimated - measured) / measured).abs();
        table.row(vec![
            format!("{cv}"),
            format!("{measured:.1}"),
            format!("{:.0}%", rel * 100.0),
        ]);
    }
    println!("{table}\n(the paper's §7 limitation: generation length drifting during training\n invalidates the profiled cost estimates — the error grows with the drift)");
}

/// Hardware what-if: slow the inter-node fabric and watch the searched plan
/// adapt (an extension beyond the paper — the simulator makes the
/// counterfactual cheap). Registered in `main` as `whatif_fabric`.
fn whatif_fabric() {
    let mut table = Table::new(vec![
        "inter-node Tbps",
        "searched tok/s",
        "heuristic tok/s",
        "gain",
        "gen strategy",
    ]);
    for tbps in [0.8f64, 3.2, 12.8] {
        let mut cluster = ClusterSpec::h100(2);
        cluster.inter_node_bw = tbps * 1e12 / 8.0 / 8.0; // per-GPU share
        let actor = ModelSpec::llama3_7b();
        let exp = Experiment::ppo(
            cluster.clone(),
            actor.clone(),
            actor.critic(),
            RlhfConfig::instruct_gpt(512),
        )
        .with_seed(17);
        let cfg = McmcConfig {
            max_steps: 20_000,
            time_limit: Duration::from_secs(20),
            record_trace: false,
            ..McmcConfig::default()
        };
        let Ok(planned) = exp.plan_auto(&cfg) else {
            table.row(vec![
                format!("{tbps}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        let heuristic = exp.plan_heuristic().unwrap();
        let searched = exp.run(&planned.plan, 2).expect("fits").tokens_per_sec;
        let baseline = exp.run(&heuristic, 2).expect("fits").tokens_per_sec;
        let gen = planned
            .plan
            .assignment(exp.graph().find("actor_gen").unwrap());
        table.row(vec![
            format!("{tbps}"),
            format!("{searched:.0}"),
            format!("{baseline:.0}"),
            format!("{:+.0}%", (searched / baseline - 1.0) * 100.0),
            gen.strategy.to_string(),
        ]);
    }
    println!("{table}\n(searched plans adapt to the fabric; the heuristic cannot)");
}

/// Fault-injection ablation: sweep the fault rate of a random
/// [`FaultPlan`] over the same workload and watch throughput degrade
/// gracefully while the resilient master keeps every iteration complete.
/// Also reports how injected faults erode the §5 estimator's accuracy —
/// the estimator prices the fault-free plan, so its relative error is a
/// direct measure of the degradation. Registered in `main` as
/// `fault_rates`.
fn fault_rates() {
    let s = setting();
    let exp = ppo_experiment(&s);
    let (est, _) = exp.prepare();
    let heuristic = exp.plan_heuristic().unwrap();
    let estimated = est.time_cost(&heuristic);
    let iters = 2usize;
    // Generous horizon so late-run faults still land inside the schedule.
    let horizon = estimated * iters as f64 * 1.5;
    let n_gpus = exp.cluster().total_gpus() as usize;
    let gpus_per_node = exp.cluster().gpus_per_node as usize;

    let mut table = Table::new(vec![
        "faults/min",
        "tokens/s",
        "retries",
        "recovered",
        "degraded",
        "lost GPU-s",
        "estimator rel err",
    ]);
    for rate in [0.0f64, 0.5, 1.0, 2.0, 4.0] {
        let plan = FaultPlan::random(23, n_gpus, gpus_per_node, horizon, rate);
        let cfg = EngineConfig {
            seed: 17,
            fault_plan: Some(plan),
            ..EngineConfig::default()
        };
        let exp = ppo_experiment(&s).with_engine_config(cfg);
        let report = exp.run(&heuristic, iters).expect("fits");
        let faults = &report.run.faults;
        let rel = ((estimated - report.run.iter_time) / report.run.iter_time).abs();
        table.row(vec![
            format!("{rate}"),
            format!("{:.0}", report.tokens_per_sec),
            faults.retries.to_string(),
            faults.requests_recovered.to_string(),
            faults.requests_degraded.to_string(),
            format!("{:.1}", faults.lost_gpu_seconds),
            format!("{:.0}%", rel * 100.0),
        ]);
    }
    println!(
        "{table}\n(throughput degrades gracefully with the fault rate; retries stay bounded\n and the fault-free estimator grows optimistic as faults eat into the run)"
    );
}

/// Elastic re-planning ablation: the same workload with one mid-run worker
/// crash of increasing downtime, retry-only vs. with a [`ReplanPolicy`].
/// Short outages never trip the dead-worker trigger (the wait stays under
/// `dead_after`), medium ones are arbitrated by the cost/benefit gate, and
/// a permanent loss forces a switch to a plan searched on the surviving
/// GPUs. Registered in `main` as `replan_ablation`.
fn replan_ablation() {
    let s = setting();
    let exp = ppo_experiment(&s);
    let heuristic = exp.plan_heuristic().unwrap();
    let iters = 2usize;
    // Steady-state `tokens_per_sec` hides a one-off stall, so compare
    // effective throughput over the whole run's makespan.
    let effective =
        |r: &ExperimentReport| r.tokens_per_iter as f64 * iters as f64 / r.run.total_time;
    let mut table = Table::new(vec![
        "downtime (s)",
        "retry-only tok/s",
        "replan tok/s",
        "gain",
        "evaluated",
        "switched",
        "gate-rejected",
    ]);
    for downtime in [60.0f64, 600.0, 1.0e6] {
        // GPU 3 dies in the middle of the first generation and stays down
        // for `downtime` virtual seconds.
        let cfg = EngineConfig {
            seed: 17,
            fault_plan: Some(FaultPlan::new(23).crash(3, 12.0, downtime)),
            ..EngineConfig::default()
        };
        let retry = ppo_experiment(&s)
            .with_engine_config(cfg.clone())
            .run(&heuristic, iters)
            .expect("fits");
        let policy = ReplanPolicy::new().with_search_steps(1_000);
        let replanned = ppo_experiment(&s)
            .with_engine_config(cfg)
            .with_replan_policy(policy)
            .run(&heuristic, iters)
            .expect("fits");
        let stats = &replanned.run.replan;
        let (base, elastic) = (effective(&retry), effective(&replanned));
        table.row(vec![
            format!("{downtime}"),
            format!("{base:.0}"),
            format!("{elastic:.0}"),
            format!("{:+.0}%", (elastic / base - 1.0) * 100.0),
            stats.evaluations.to_string(),
            stats.switches.to_string(),
            stats.gate_rejections.to_string(),
        ]);
    }
    println!(
        "{table}\n(the trigger ignores short outages, the gate arbitrates medium ones, and a\n permanent worker loss flips the run onto a plan searched over the survivors)"
    );
}

/// Fig. 16 extended to the workflows beyond the paper's four: RAFT and
/// iterative DPO, searched vs the symmetric heuristic. Registered in `main`
/// as `extra_algorithms`.
fn extra_algorithms() {
    let cluster = ClusterSpec::h100(2);
    let actor = ModelSpec::llama3_7b();
    let reward = ModelSpec::llama3_7b().critic();
    let cfg = RlhfConfig {
        grpo_group: 4,
        ..RlhfConfig::instruct_gpt(128)
    };
    let experiments = vec![
        (
            "RAFT",
            Experiment::raft(cluster.clone(), actor.clone(), reward.clone(), cfg),
        ),
        (
            "iterative-DPO",
            Experiment::iterative_dpo(cluster.clone(), actor.clone(), reward.clone(), cfg),
        ),
    ];
    let mut table = Table::new(vec!["algorithm", "heuristic tok/s", "ReaL tok/s", "gain"]);
    for (name, exp) in experiments {
        let exp = exp.with_seed(47);
        println!("--- {name} dataflow DAG ---\n{}", to_ascii(exp.graph()));
        let mcmc = McmcConfig {
            max_steps: 15_000,
            time_limit: Duration::from_secs(20),
            record_trace: false,
            ..McmcConfig::default()
        };
        let Ok(planned) = exp.plan_auto(&mcmc) else {
            println!("{name}: no feasible plan");
            continue;
        };
        let heuristic = exp.plan_heuristic().unwrap();
        let h = exp
            .run(&heuristic, 2)
            .map(|r| r.tokens_per_sec)
            .unwrap_or(f64::NAN);
        let r = exp
            .run(&planned.plan, 2)
            .map(|r| r.tokens_per_sec)
            .unwrap_or(f64::NAN);
        table.row(vec![
            name.to_string(),
            format!("{h:.0}"),
            format!("{r:.0}"),
            format!("{:+.0}%", (r / h - 1.0) * 100.0),
        ]);
    }
    println!("{table}");
}

/// Multi-tenant packing: the `real-sched` allocation search vs the naive
/// equal static split (GPUs divided evenly in admission order, plans
/// searched per tenant with the same budget). The objective both are
/// measured on is the priority-weighted makespan `Σᵢ pᵢ·totalᵢ` of the
/// run; both run on the same executor, `real-serve`'s loop. Registered in
/// `main` as `tenant_packing`.
fn tenant_packing() {
    use real_core::real_cluster::partition;
    use real_core::real_estimator::MemoStats;
    use real_core::Tenant;
    use real_sched::{SchedConfig, Schedule, Scheduler, TenantPlan};

    struct Mix {
        name: &'static str,
        nodes: u32,
        // (tenant, actor size, batch, priority)
        tenants: Vec<(&'static str, &'static str, u64, f64)>,
    }
    let mixes = vec![
        Mix {
            name: "7B+7B equal",
            nodes: 2,
            tenants: vec![("a", "7b", 64, 1.0), ("b", "7b", 64, 1.0)],
        },
        Mix {
            name: "7B+34B",
            nodes: 2,
            tenants: vec![("big", "34b", 64, 1.0), ("small", "7b", 32, 1.0)],
        },
        Mix {
            name: "13B+7B+7B mixed-priority",
            nodes: 4,
            tenants: vec![
                ("prod", "13b", 64, 2.0),
                ("dev", "7b", 32, 1.0),
                ("nightly", "7b", 32, 0.5),
            ],
        },
        Mix {
            name: "4x7B mixed-priority",
            nodes: 2,
            tenants: vec![
                ("p1", "7b", 64, 2.0),
                ("p2", "7b", 32, 1.0),
                ("p3", "7b", 32, 1.0),
                ("p4", "7b", 32, 0.5),
            ],
        },
    ];

    // Naive equal split: tenant `i` of `n` gets the i-th consecutive
    // `total/n`-GPU slice, rounded down to a legal power-of-two mesh
    // (any remainder stays idle, as a static operator split would).
    let equal_mesh = |cluster: &ClusterSpec, i: u32, n: u32| -> DeviceMesh {
        let per = 1u32 << (cluster.total_gpus() / n).max(1).ilog2();
        let gpn = cluster.gpus_per_node;
        if per >= gpn {
            let nodes_per = per / gpn;
            DeviceMesh::whole_nodes(cluster, i * nodes_per, nodes_per).expect("aligned")
        } else {
            let node = (i * per) / gpn;
            DeviceMesh::sub_node(cluster, node, (i * per) % gpn, per).expect("aligned")
        }
    };

    let mut table = Table::new(vec![
        "mix",
        "naive weighted (s)",
        "packed weighted (s)",
        "gain",
        "packed fairness",
        "max stretch",
        "reallocs",
    ]);
    for mix in mixes {
        let cluster = ClusterSpec::h100(mix.nodes);
        let tenants: Vec<Tenant> = mix
            .tenants
            .iter()
            .enumerate()
            .map(|(i, (name, size, batch, prio))| {
                let exp = Experiment::dpo(
                    cluster.clone(),
                    ModelSpec::by_size(size).expect("preset exists"),
                    RlhfConfig::instruct_gpt(*batch),
                )
                .with_quick_profile();
                Tenant::new(*name, i as u64, exp).with_priority(*prio)
            })
            .collect();

        // Naive: equal static split, per-tenant search with the same
        // budget the scheduler's refinement gets. A slice with no
        // memory-feasible plan is the static split's OOM outcome
        // (the paper's Fig. 7 red cross).
        let n = tenants.len() as u32;
        let mut naive_split = Vec::new();
        let mut naive_oom = false;
        for (i, t) in tenants.iter().enumerate() {
            let mesh = equal_mesh(&cluster, i as u32, n);
            let inner = partition::meshes_within(&cluster, &mesh);
            let result = SearchSpace::try_build_on(
                &cluster,
                t.experiment().graph(),
                PruneLevel::Aggressive,
                &inner,
            )
            .ok()
            .map(|space| {
                let (est, _) = t.experiment().prepare();
                search(
                    &est,
                    &space,
                    &McmcConfig {
                        max_steps: 1_500,
                        time_limit: Duration::from_secs(600),
                        record_trace: false,
                        seed: 5,
                        ..McmcConfig::default()
                    },
                )
            });
            let Some(result) = result.filter(|r| r.feasible) else {
                naive_oom = true;
                break;
            };
            naive_split.push(TenantPlan {
                name: t.name().to_string(),
                id: t.id(),
                priority: t.priority(),
                iterations: t.iterations(),
                allocation: mesh,
                plan: result.best_plan,
                est_step_secs: result.best_time_cost,
                solo_step_secs: 0.0,
                time_shared: false,
            });
        }
        let naive_weighted: Option<f64> = if naive_oom {
            None
        } else {
            // The hand-placed split runs through the same executor.
            let split = Schedule::new(naive_split, false, MemoStats::default());
            let naive =
                real_serve::run_schedule(&cluster, &tenants, split, 5).expect("naive split runs");
            Some(naive.report.weighted_makespan_secs)
        };

        // Scheduler-packed allocation, same refinement budget and seed.
        let scheduler = Scheduler::new(cluster).with_config(SchedConfig {
            seed: 5,
            refine_steps: 1_500,
            ..SchedConfig::default()
        });
        let outcome = real_serve::run_sched(&scheduler, &tenants).expect("scheduler packs the mix");
        let packed = &outcome.report;
        let (naive_cell, gain_cell) = match naive_weighted {
            Some(w) => (
                format!("{w:.1}"),
                format!("{:+.0}%", (w / packed.weighted_makespan_secs - 1.0) * 100.0),
            ),
            None => ("OOM".into(), "-".into()),
        };
        table.row(vec![
            mix.name.into(),
            naive_cell,
            format!("{:.1}", packed.weighted_makespan_secs),
            gain_cell,
            format!("{:.3}", packed.fairness_index),
            format!("{:.2}", packed.max_stretch),
            if packed.oversubscribed {
                format!("{} (shared)", packed.total_reallocs)
            } else {
                packed.total_reallocs.to_string()
            },
        ]);
    }
    println!(
        "{table}\n(gain is naive/packed - 1 on priority-weighted makespan; OOM marks an equal\n split whose slice has no memory-feasible plan; the scheduler wins where equal\n shares waste capacity on low-priority or small tenants)"
    );
}

/// Serving admission-control ablation: one bursty day-fraction workload
/// (steady low-priority training arrivals, hourly high-priority bursts)
/// served under three policies — full admission control with checkpointed
/// preemption, admission control alone, and the admit-all baseline. The
/// controlled policies must beat admit-all on priority-weighted flow while
/// keeping max stretch inside the bound; preemption's extra win is serving
/// every high-priority arrival instead of rejecting the ones that would
/// blow their stretch waiting. Registered in `main` as `serve_admission`.
fn serve_admission() {
    use real_sched::{GraphSet, TenantSpec};
    use real_serve::{serve, AdmissionSpec, ArrivalSpec, BurstSpec, TemplateSpec, WorkloadSpec};

    let tenant = |name: &str, prio: f64, iters: usize, batch: u64| TenantSpec {
        name: name.into(),
        id: None,
        priority: Some(prio),
        algo: Some("dpo".into()),
        actor: Some("7b".into()),
        critic: None,
        batch: Some(batch),
        graph: None,
        iterations: Some(iters),
        faults: None,
        elastic: None,
    };
    let mut spec = WorkloadSpec {
        nodes: 2,
        seed: Some(7),
        horizon_secs: Some(14_400.0),
        arrivals: ArrivalSpec::Poisson {
            rate_per_hour: 12.0,
            burst: Some(BurstSpec {
                every_secs: 3600.0,
                secs: 600.0,
                rate_per_hour: 120.0,
            }),
        },
        templates: vec![
            TemplateSpec {
                tenant: tenant("train", 1.0, 6, 64),
                weight: Some(4.0),
            },
            TemplateSpec {
                tenant: tenant("burst", 8.0, 1, 32),
                weight: Some(1.0),
            },
        ],
        admission: None,
    };

    let policies: Vec<(&str, Option<bool>, Option<bool>)> = vec![
        // (label, admit_all, preemption)
        ("admission + preemption", None, None),
        ("admission only", None, Some(false)),
        ("admit-all", Some(true), None),
    ];
    let mut table = Table::new(vec![
        "policy",
        "served",
        "rejected",
        "preempt",
        "weighted flow (s)",
        "max stretch",
        "high-pri wait (s)",
    ]);
    for (label, admit_all, preemption) in policies {
        spec.admission = Some(AdmissionSpec {
            max_stretch: None,
            admit_all,
            preemption,
            min_benefit_ratio: None,
            probe_steps: None,
        });
        let r = serve(&spec, &GraphSet::new()).expect("workload serves");
        let high: Vec<_> = r
            .tenants
            .iter()
            .filter(|t| t.priority > 1.0 && t.finish_secs.is_some())
            .collect();
        let hi_wait = if high.is_empty() {
            0.0
        } else {
            high.iter().map(|t| t.queue_wait_secs).sum::<f64>() / high.len() as f64
        };
        table.row(vec![
            label.into(),
            (r.admitted + r.queued).to_string(),
            r.rejected.to_string(),
            r.preemptions.to_string(),
            format!("{:.0}", r.weighted_flow_secs),
            format!("{:.2}", r.max_stretch),
            format!("{hi_wait:.2}"),
        ]);
    }
    println!(
        "{table}\n(priority-weighted flow Σ p·(finish-arrival) over served tenants; the stretch\n bound is 4.0 — admit-all blows through it, the controlled policies respect it\n and preemption serves every high-priority burst instead of rejecting some)"
    );
}

/// The synchronous and the async off-policy (staleness 1) runs of one PPO
/// workload, each on the plan the search picks for its own objective (the
/// `real run` defaults: 40k steps, 4 iterations).
struct AsyncPair {
    sync: ExperimentReport,
    /// The async run, its experiment, and its plan's estimated TimeCost.
    run: ExperimentReport,
    exp: Experiment,
    estimated: f64,
}

fn async_pair(nodes: u32, actor: &str, critic: &str, batch: u64) -> AsyncPair {
    let preset = |size| ModelSpec::by_size(size).expect("preset exists");
    let sync_exp = Experiment::ppo(
        ClusterSpec::h100(nodes),
        preset(actor),
        preset(critic).critic(),
        RlhfConfig::instruct_gpt(batch),
    )
    .with_quick_profile();
    let exp = sync_exp.clone().with_async_offpolicy(1);
    let cfg = McmcConfig {
        max_steps: 40_000,
        time_limit: Duration::from_secs(20),
        ..McmcConfig::default()
    };
    let planned = |e: &Experiment| e.plan_auto(&cfg).expect("feasible plan").search.base;
    let sync_plan = planned(&sync_exp).best_plan;
    let searched = planned(&exp);
    let iters = 4;
    AsyncPair {
        sync: sync_exp.run(&sync_plan, iters).expect("fits"),
        run: exp.run(&searched.best_plan, iters).expect("fits"),
        exp,
        estimated: searched.best_time_cost,
    }
}

/// Asynchronous off-policy ablation: per PPO workload, the synchronous
/// searched plan under the synchronous master against the async searched
/// plan (the search prices staleness 1) under the async master. The
/// realized overlap is measured from the profiler's phase attribution, not
/// inferred. Registered in `main` as `async_overlap`.
fn async_overlap() {
    let mut table = Table::new(vec![
        "actor+critic",
        "GPUs",
        "batch",
        "sync iter (s)",
        "async iter (s)",
        "gain",
        "async est (s)",
        "overlap (s)",
        "max staleness",
    ]);
    for (actor, critic, nodes, batch) in [("7b", "7b", 1u32, 32u64), ("13b", "7b", 2, 128)] {
        let p = async_pair(nodes, actor, critic, batch);
        let overlap = real_core::real_obs::phase_overlap(
            &p.exp.spans(&p.run),
            real_core::real_obs::Phase::Generation,
            real_core::real_obs::Phase::Training,
        );
        let (sync, run) = (p.sync.run.iter_time, p.run.run.iter_time);
        table.row(vec![
            format!("{actor}+{critic}"),
            (nodes * 8).to_string(),
            batch.to_string(),
            format!("{sync:.2}"),
            format!("{run:.2}"),
            format!("{:+.0}%", (sync / run - 1.0) * 100.0),
            format!("{:.2}", p.estimated),
            format!("{overlap:.2}"),
            p.run.run.async_stats.max_observed_staleness.to_string(),
        ]);
    }
    println!(
        "{table}\n(each mode on its own searched plan; iteration times are the runtime's,\n the async estimate is the search's TimeCost of the async plan)"
    );
}

/// CI-sized async gate (see docs/DATAFLOWS.md): on PPO 7B + 7B at 8 GPUs,
/// the async searched plan under the async master must be no slower than
/// the synchronous searched plan under the synchronous master, and the
/// estimator must price the async plan within 25% of the measured
/// iteration time. Registered in `main` as `async_overlap_gate`.
fn async_overlap_gate() {
    let p = async_pair(1, "7b", "7b", 32);
    let (sync, run) = (p.sync.run.iter_time, p.run.run.iter_time);
    let error = (p.estimated - run).abs() / run;
    println!(
        "sync {sync:.2}s, async {run:.2}s (estimated {:.2}s, {:.0}% off)",
        p.estimated,
        error * 100.0
    );
    assert!(
        run <= sync,
        "async {run:.2}s is slower than sync {sync:.2}s"
    );
    assert!(
        error <= 0.25,
        "async estimate {:.0}% off the runtime",
        error * 100.0
    );
}

/// One reference-chain vs pricer-chain search pair at a fixed step budget,
/// in the shape [`throughput_pair`] returns.
struct ThroughputPair {
    reference_secs: f64,
    pricer_secs: f64,
    hit_rate: f64,
    /// Share of the pricer chain's polish candidates skipped by the
    /// critical-path bound.
    pruned_frac: f64,
    /// Share of the pricer chain's steps rejected by the bound unpriced.
    gated_frac: f64,
}

/// Runs one [`ThroughputPair`] and asserts the plans and chains are
/// identical: the pricer is an optimization, never a different search.
fn throughput_pair(nodes: u32, actor: ModelSpec, batch: u64, steps: u64) -> ThroughputPair {
    let s = Setting::new(nodes, actor, batch);
    let exp = ppo_experiment(&s).with_quick_profile();
    let (est, _) = exp.prepare();
    let space = exp.search_space();
    let cfg = McmcConfig {
        max_steps: steps,
        time_limit: Duration::from_secs(86_400), // step-bounded only
        record_trace: false,
        seed: 7,
        ..McmcConfig::default()
    };
    let t = Instant::now();
    let off = search_reference(&est, &space, &cfg);
    let off_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let on = search(&est, &space, &cfg);
    let on_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        off.best_plan, on.best_plan,
        "memoization must not change the chosen plan"
    );
    assert_eq!(off.best_time_cost.to_bits(), on.best_time_cost.to_bits());
    assert_eq!(off.chain, on.chain, "gating must not change the chain");
    let chain = cfg.seed.to_string();
    let counter = |name: &str| {
        on.telemetry
            .get(name, &[("chain", chain.as_str())])
            .expect("every chain counts its steps and polish")
            .scalar()
    };
    let pruned = counter("search/polish_pruned");
    ThroughputPair {
        reference_secs: off_secs,
        pricer_secs: on_secs,
        hit_rate: on.memo.hit_rate(),
        pruned_frac: pruned / (pruned + counter("search/polish_priced")).max(1.0),
        gated_frac: counter("search/bound_rejected") / (on.steps as f64).max(1.0),
    }
}

/// The fast-path headline: MCMC steps/sec with the incremental memoized
/// pricer vs the from-scratch reference chain
/// ([`search_reference`]), from one node up to a
/// simulated 8192-GPU cluster (70B actor + 7B critic 4-model PPO).
fn search_throughput() {
    println!("memoized incremental pricing vs the from-scratch reference chain (identical plans, seed 7)");
    let mut table = Table::new(vec![
        "GPUs",
        "steps",
        "off wall (s)",
        "on wall (s)",
        "off steps/s",
        "on steps/s",
        "speedup",
        "hit rate",
        "steps gated",
        "polish pruned",
    ]);
    for (nodes, steps) in [(8u32, 4_000u64), (128, 1_000), (1_024, 400)] {
        let p = throughput_pair(nodes, ModelSpec::llama3_70b(), 4096, steps);
        table.row(vec![
            (nodes * 8).to_string(),
            steps.to_string(),
            format!("{:.2}", p.reference_secs),
            format!("{:.2}", p.pricer_secs),
            format!("{:.0}", steps as f64 / p.reference_secs),
            format!("{:.0}", steps as f64 / p.pricer_secs),
            format!("{:.1}x", p.reference_secs / p.pricer_secs),
            format!("{:.0}%", p.hit_rate * 100.0),
            format!("{:.0}%", p.gated_frac * 100.0),
            format!("{:.0}%", p.pruned_frac * 100.0),
        ]);
    }
    println!("{table}\n(speedup grows with cluster size: from-scratch MaxMem scans every GPU,\n the fast path re-prices only what the one-call perturbation touched)");
}

/// One speculative-vs-plain search at a fixed acceptance rate, sharing a
/// priced-call memo across the sweep (the spec-duration cache keys on the
/// full draft config fingerprint, acceptance curve included, so reuse is
/// sound). Returns the search result for throughput accounting.
fn spec_search_at(
    cluster: &ClusterSpec,
    est: &Estimator,
    space: &SearchSpace,
    draft: &ModelSpec,
    alpha: f64,
    memo: &mut CostMemo,
) -> SpecSearchResult {
    let menu = SpecMenu::build(
        cluster,
        vec![draft.clone()],
        vec![2, 4, 6, 8],
        SpecTask::RlhfRollout,
    )
    .with_curve(AcceptanceCurve::Constant(alpha));
    let cfg = McmcConfig {
        max_steps: 2_000,
        time_limit: Duration::from_secs(120),
        record_trace: false,
        seed: 7,
        ..McmcConfig::default()
    };
    search_speculative(est, space, &menu, &cfg, 1, 1, memo)
}

/// A decode-dominant PPO experiment (long rollouts, short prompts): the
/// regime where draft/verify speculation can pay end-to-end.
fn spec_experiment(nodes: u32, target: &ModelSpec, batch: u64) -> Experiment {
    let rlhf = RlhfConfig {
        gen_len: 3072,
        prompt_len: 256,
        ..RlhfConfig::instruct_gpt(batch)
    };
    Experiment::ppo(
        ClusterSpec::h100(nodes),
        target.clone(),
        ModelSpec::llama3_7b().critic(),
        rlhf,
    )
    .with_seed(17)
    .with_quick_profile()
}

/// Speculative-decoding ablation: throughput vs acceptance rate against the
/// non-speculative incumbent, at two draft/target pairings. The incumbent
/// is the plain MCMC winner (identical seed and budget); the speculative
/// column is the same search with the draft menu enabled. Registered in
/// `main` as `spec_decode`.
fn spec_decode() {
    println!("draft/verify speculation vs plain decode (PPO, gen 3072 / prompt 256, seed 7)");
    let pairings = [
        (
            "1B draft / 13B target",
            2u32,
            ModelSpec::llama3_13b(),
            ModelSpec::llama3_1b(),
            64u64,
        ),
        (
            "7B draft / 70B target",
            8,
            ModelSpec::llama3_70b(),
            ModelSpec::llama3_7b(),
            256,
        ),
    ];
    for (label, nodes, target, draft, batch) in pairings {
        let exp = spec_experiment(nodes, &target, batch);
        let (est, _) = exp.prepare();
        let space = exp.search_space();
        let cluster = exp.cluster().clone();
        let tokens = (batch * (3072 + 256)) as f64;
        let mut memo = CostMemo::new();
        let mut table = Table::new(vec![
            "acceptance",
            "plain tok/s",
            "spec tok/s",
            "gain",
            "chosen draft",
        ]);
        for alpha in [0.5, 0.6, 0.7, 0.8, 0.9] {
            let r = spec_search_at(&cluster, &est, &space, &draft, alpha, &mut memo);
            let chosen = r
                .best()
                .best_plan
                .spec_choices()
                .map(|(_, c)| {
                    format!(
                        "{} k={}",
                        c.config.draft_model.name, c.config.speculation_len
                    )
                })
                .next()
                .unwrap_or_else(|| "(plain)".into());
            table.row(vec![
                format!("{alpha}"),
                format!("{:.0}", tokens / r.base.best_time_cost),
                format!("{:.0}", tokens / r.best().best_time_cost),
                format!("{:+.0}%", (r.speedup_over_base() - 1.0) * 100.0),
                chosen,
            ]);
        }
        println!("--- {label} ({} GPUs) ---\n{table}", nodes * 8);
    }
    println!("(the polish strips speculation whenever it does not strictly beat plain decode,\n so the low-acceptance rows fall back to the incumbent instead of regressing)");
}

/// CI-sized speculation gate (see docs/SPECULATION.md): on the small
/// decode-dominant pairing, the searched speculative plan must beat the
/// plain incumbent by >= 25% at acceptance 0.8 and must fall back to plain
/// decode at acceptance 0.3. Registered in `main` as `spec_decode_gate`.
fn spec_decode_gate() {
    let target = ModelSpec::llama3_7b();
    let exp = spec_experiment(2, &target, 32);
    let (est, _) = exp.prepare();
    let space = exp.search_space();
    let cluster = exp.cluster().clone();
    let draft = ModelSpec::llama3_1b();
    let mut memo = CostMemo::new();

    let high = spec_search_at(&cluster, &est, &space, &draft, 0.8, &mut memo);
    let speedup = high.speedup_over_base();
    println!(
        "alpha 0.8: plain {:.2}s, speculative {:.2}s -> {speedup:.2}x",
        high.base.best_time_cost,
        high.best().best_time_cost
    );
    assert!(
        high.best().best_plan.has_speculation(),
        "alpha=0.8 must keep a draft"
    );
    assert!(
        speedup >= 1.25,
        "speculation regressed: only {speedup:.2}x over plain decode at alpha=0.8"
    );

    let low = spec_search_at(&cluster, &est, &space, &draft, 0.3, &mut memo);
    println!(
        "alpha 0.3: plain {:.2}s, speculative path {:.2}s (speculation stripped: {})",
        low.base.best_time_cost,
        low.best().best_time_cost,
        !low.best().best_plan.has_speculation()
    );
    assert!(
        !low.best().best_plan.has_speculation(),
        "alpha=0.3 must fall back to plain decode"
    );
    assert!(low.best().best_time_cost <= low.base.best_time_cost + 1e-9);
}

/// CI-sized regression gate for the fast path: same plan, the memoized
/// search must beat the from-scratch reference chain by a conservative
/// margin on the quick config (the full ablation shows far larger wins at
/// scale), and the critical-path bound must keep gating the chain and
/// pruning the polish.
fn search_throughput_gate() {
    // The 1024-GPU pair (128 nodes, 70B actor). The reference chain prices
    // every proposal and polish candidate from scratch; the pricer chain
    // rejects most proposals by the critical-path bound unpriced and skips
    // most polish candidates by the per-call duration thresholds. On a
    // shared 2-vCPU VM the full 1000-step search took 7.98 s from scratch
    // vs 0.08 s through the pricer (~105x), with 89% memo hits, 92% of the
    // pricer chain's steps gated and 95% of its polish candidates pruned,
    // so every floor has margin.
    let p = throughput_pair(128, ModelSpec::llama3_70b(), 4096, 1_000);
    let speedup = p.reference_secs / p.pricer_secs;
    println!(
        "reference chain {:.2}s, pricer chain {:.2}s -> {speedup:.1}x (hit rate {:.0}%, steps gated {:.0}%, polish pruned {:.0}%)",
        p.reference_secs,
        p.pricer_secs,
        p.hit_rate * 100.0,
        p.gated_frac * 100.0,
        p.pruned_frac * 100.0
    );
    assert!(
        p.hit_rate > 0.5,
        "memo hit rate collapsed: {:.2}",
        p.hit_rate
    );
    assert!(
        speedup > 1.5,
        "fast path regressed: only {speedup:.2}x over from-scratch pricing"
    );
    assert!(
        p.pruned_frac > 0.8,
        "critical-path bound stopped pruning the polish: {:.2}",
        p.pruned_frac
    );
    assert!(
        p.gated_frac > 0.7,
        "critical-path bound stopped gating the chain: {:.2}",
        p.gated_frac
    );
}
