//! Regenerates every table and figure of the paper's evaluation (§8).
//!
//! Run all: `cargo bench -p real-bench --bench figures`
//! Run some: `cargo bench -p real-bench --bench figures -- fig07 table6`
//!
//! Each figure prints the paper-style rows/series and persists its data as
//! JSON under `target/figures/`. Absolute numbers come from the simulated
//! cluster; the *shapes* (who wins, by what factor, where crossovers fall)
//! are the reproduction targets recorded in EXPERIMENTS.md.

// Figure tables are ad-hoc row shapes; naming each tuple would obscure them.
#![allow(clippy::type_complexity)]

use real_bench::{cell, ppo_experiment, save_json, weak_scaling, PlanCache, Setting};
use real_core::prelude::*;
use real_util::Table;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| name.contains(a.as_str()));

    let mut cache = PlanCache::new();
    let figures: Vec<(&str, fn(&mut PlanCache))> = vec![
        ("table1_models", table1_models),
        ("fig01_timelines", fig01_timelines),
        ("fig07_end2end", fig07_end2end),
        ("fig08_longctx", fig08_longctx),
        ("fig02_opportunity", fig02_opportunity),
        ("fig09_progressive", fig09_progressive),
        ("fig10_traces", fig10_traces),
        ("fig11_kernelstats", fig11_kernelstats),
        ("fig12_estimator", fig12_estimator),
        ("fig13_search", fig13_search),
        ("fig14_pruning", fig14_pruning),
        ("fig15_optimality", fig15_optimality),
        ("fig16_algorithms", fig16_algorithms),
        ("fig17_scaling", fig17_scaling),
        ("table2to5_plans", table2to5_plans),
        ("table6_breakdown", table6_breakdown),
    ];
    for (name, f) in figures {
        if !want(name) {
            continue;
        }
        let t = Instant::now();
        println!("\n================== {name} ==================");
        f(&mut cache);
        println!("[{name} done in {:.1}s]", t.elapsed().as_secs_f64());
    }
}

/// Representative small/large pair used by the breakdown figures
/// (7B+7B on 2 nodes, 70B+7B on 16 nodes — Table 6's two cases).
fn breakdown_settings() -> Vec<Setting> {
    let ws = weak_scaling();
    vec![ws[0].clone(), ws[3].clone()]
}

// ---------------------------------------------------------------- Table 1

fn table1_models(_: &mut PlanCache) {
    let mut t = Table::new(vec![
        "identifier",
        "hidden",
        "intermediate",
        "layers",
        "heads",
        "kv-heads",
        "total params",
        "params w/o out-embed",
    ]);
    for size in ["7b", "13b", "34b", "70b"] {
        let m = ModelSpec::by_size(size).unwrap();
        t.row(vec![
            size.to_uppercase(),
            m.hidden.to_string(),
            m.intermediate.to_string(),
            m.n_layers.to_string(),
            m.n_heads.to_string(),
            m.n_kv_heads.to_string(),
            m.param_count().to_string(),
            m.param_count_no_output_embed().to_string(),
        ]);
    }
    println!("{t}");
}

// ----------------------------------------------------------------- Fig. 1

fn fig01_timelines(cache: &mut PlanCache) {
    let s = weak_scaling()[0].clone();
    let planned = cache.plan(&s).clone();
    let exp = ppo_experiment(&s);
    let graph = exp.graph().clone();

    let mut rows: Vec<(String, Vec<(String, f64, f64)>)> = Vec::new();
    // Symmetric (heuristic), asymmetric (OpenRLHF placement), ReaL.
    let variants: Vec<(&str, Option<ExecutionPlan>, EngineConfig)> = {
        let base = EngineConfig::default();
        let openrlhf = baselines::openrlhf(&s.cluster(), &graph, &base).ok();
        vec![
            (
                "symmetric (heuristic)",
                Some(planned.heuristic.clone()),
                base.clone(),
            ),
            (
                "asymmetric (OpenRLHF-style)",
                openrlhf.as_ref().map(|b| b.plan.clone()),
                openrlhf.map(|b| b.config).unwrap_or_else(|| base.clone()),
            ),
            ("ReaL (searched)", Some(planned.searched.clone()), base),
        ]
    };
    for (name, plan, cfg) in variants {
        let Some(plan) = plan else {
            println!("{name}: OOM");
            continue;
        };
        let Some(report) = cache.run(&s, &plan, cfg, 1) else {
            println!("{name}: OOM");
            continue;
        };
        println!("--- {name}: iteration {:.1}s ---", report.run.iter_time);
        let horizon = report.run.total_time;
        let mut timeline: Vec<(String, f64, f64)> = Vec::new();
        for t in &report.run.timings {
            let w = 60.0;
            let a = (t.start / horizon * w) as usize;
            let b = ((t.end / horizon * w) as usize).max(a + 1).min(60);
            let mut bar = vec![' '; 60];
            for c in bar.iter_mut().take(b).skip(a) {
                *c = '#';
            }
            println!("{:>14} |{}|", t.call_name, bar.iter().collect::<String>());
            timeline.push((t.call_name.clone(), t.start, t.end));
        }
        rows.push((name.to_string(), timeline));
    }
    save_json("fig01_timelines", &rows);
}

// ----------------------------------------------------------------- Fig. 7

fn fig07_end2end(cache: &mut PlanCache) {
    let mut table = Table::new(vec![
        "setting",
        "DeepSpeed-Chat",
        "OpenRLHF",
        "NeMo-Aligner",
        "veRL",
        "ReaL-Heuristic",
        "ReaL",
        "best speedup",
    ]);
    let mut data: Vec<(String, Vec<(String, Option<f64>)>)> = Vec::new();
    for s in weak_scaling() {
        let planned = cache.plan(&s).clone();
        let exp = ppo_experiment(&s);
        let graph = exp.graph().clone();
        let base = EngineConfig::default();
        let mut row: Vec<(String, Option<f64>)> = Vec::new();
        for (name, setup) in baselines::all(&s.cluster(), &graph, &base) {
            let tput = match setup {
                Ok(b) => {
                    let r = cache.run(&s, &b.plan, b.config, 2);
                    if r.is_none() {
                        eprintln!("[fig07] {name} @ {}: runtime MaxMem check OOM", s.name);
                    }
                    r.map(|r| r.tokens_per_sec)
                }
                Err(e) => {
                    eprintln!("[fig07] {name} @ {}: {e}", s.name);
                    None
                }
            };
            row.push((name.to_string(), tput));
        }
        let heuristic = cache
            .run(&s, &planned.heuristic, base.clone(), 2)
            .map(|r| r.tokens_per_sec);
        let real = cache
            .run(&s, &planned.searched, base, 2)
            .map(|r| r.tokens_per_sec);
        row.push(("ReaL-Heuristic".into(), heuristic));
        row.push(("ReaL".into(), real));

        let real_v = real.unwrap_or(0.0);
        let worst = row
            .iter()
            .take(4)
            .filter_map(|(_, v)| *v)
            .fold(f64::INFINITY, f64::min);
        let speedup = if worst.is_finite() && worst > 0.0 {
            format!("{:.2}x", real_v / worst)
        } else {
            "n/a".into()
        };
        table.row(
            std::iter::once(s.name.clone())
                .chain(row.iter().map(|(_, v)| cell(*v)))
                .chain(std::iter::once(speedup))
                .collect(),
        );
        data.push((s.name.clone(), row));
    }
    println!(
        "{table}\n(tokens/s; OOM marks configurations that do not fit, the paper's red crosses)"
    );
    save_json("fig07_end2end", &data);
}

// ----------------------------------------------------------------- Fig. 8

fn fig08_longctx(cache: &mut PlanCache) {
    let mut table = Table::new(vec![
        "setting",
        "ctx",
        "heuristic tok/s",
        "ReaL tok/s",
        "gain",
    ]);
    let mut data = Vec::new();
    for base_setting in [weak_scaling()[0].clone(), weak_scaling()[3].clone()] {
        for factor in [1u64, 2, 4] {
            let s = base_setting.clone().with_context_scale(factor);
            let planned = cache.plan(&s).clone();
            let cfg = EngineConfig::default();
            let h = cache
                .run(&s, &planned.heuristic, cfg.clone(), 2)
                .map(|r| r.tokens_per_sec);
            let r = cache
                .run(&s, &planned.searched, cfg, 2)
                .map(|r| r.tokens_per_sec);
            let gain = match (h, r) {
                (Some(h), Some(r)) if h > 0.0 => format!("{:.0}%", (r / h - 1.0) * 100.0),
                _ => "n/a".into(),
            };
            table.row(vec![
                s.name.clone(),
                s.cfg.context_len().to_string(),
                cell(h),
                cell(r),
                gain.clone(),
            ]);
            data.push((s.name.clone(), s.cfg.context_len(), h, r));
        }
    }
    println!("{table}");
    save_json("fig08_longctx", &data);
}

// ------------------------------------------------------- Fig. 2 & Fig. 9

/// Progressive optimization: start from the heuristic plan and adopt the
/// searched assignments call-group by call-group.
fn progressive(cache: &mut PlanCache, s: &Setting, label: &str) -> Vec<(String, f64)> {
    let planned = cache.plan(s).clone();
    let exp = ppo_experiment(s);
    let graph = exp.graph().clone();
    let stages: Vec<(&str, Box<dyn Fn(&CallType) -> bool>)> = vec![
        (
            "+ generation plan",
            Box::new(|c: &CallType| matches!(c, CallType::Generate { .. })),
        ),
        (
            "+ training plans",
            Box::new(|c: &CallType| matches!(c, CallType::TrainStep { .. })),
        ),
        (
            "+ inference plans",
            Box::new(|c: &CallType| matches!(c, CallType::Inference { .. })),
        ),
    ];

    let mut rows = Vec::new();
    let no_graph = EngineConfig {
        cuda_graph: false,
        ..EngineConfig::default()
    };
    if let Some(r) = cache.run(s, &planned.heuristic, no_graph, 2) {
        rows.push(("heuristic (no CUDA graphs)".to_string(), r.run.iter_time));
    }
    let mut plan = planned.heuristic.clone();
    if let Some(r) = cache.run(s, &plan, EngineConfig::default(), 2) {
        rows.push(("+ CUDA-graph generation".to_string(), r.run.iter_time));
    }
    // Intermediate mixes of heuristic and searched assignments are
    // synthetic waypoints, not launchable plans; their memory peaks are
    // transitional, so the check is skipped (endpoints are real plans).
    let relaxed = EngineConfig {
        skip_mem_check: true,
        ..EngineConfig::default()
    };
    for (name, selector) in stages {
        for (id, def) in graph.iter() {
            if selector(&def.call_type) {
                plan = plan
                    .with_assignment(id, *planned.searched.assignment(id))
                    .expect("searched assignments are valid");
            }
        }
        if let Some(r) = cache.run(s, &plan, relaxed.clone(), 2) {
            rows.push((name.to_string(), r.run.iter_time));
        } else {
            rows.push((format!("{name} (OOM)"), f64::NAN));
        }
    }

    let mut table = Table::new(vec!["optimization", "iteration (s)"]);
    for (name, t) in &rows {
        table.row(vec![name.clone(), format!("{t:.1}")]);
    }
    println!("--- {label} ({}) ---\n{table}", s.name);
    rows
}

fn fig02_opportunity(cache: &mut PlanCache) {
    let s = weak_scaling()[3].clone();
    let rows = progressive(
        cache,
        &s,
        "Fig. 2: optimization opportunity over 3D parallelism",
    );
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        println!("end-to-end improvement: {:.2}x", first.1 / last.1);
    }
    save_json("fig02_opportunity", &rows);
}

fn fig09_progressive(cache: &mut PlanCache) {
    let mut data = Vec::new();
    for s in breakdown_settings() {
        let rows = progressive(cache, &s, "Fig. 9: progressive optimizations");
        data.push((s.name.clone(), rows));
    }
    save_json("fig09_progressive", &data);
}

// ---------------------------------------------------------------- Fig. 10

fn fig10_traces(cache: &mut PlanCache) {
    let s = weak_scaling()[0].clone();
    let planned = cache.plan(&s).clone();
    let mut data = Vec::new();
    for (name, plan) in [
        ("ReaL", &planned.searched),
        ("heuristic", &planned.heuristic),
    ] {
        let cfg = EngineConfig {
            trace_capacity: 200_000,
            ..EngineConfig::default()
        };
        let Some(report) = cache.run(&s, plan, cfg, 1) else {
            continue;
        };
        let horizon = report.run.total_time;
        println!("--- {name}: GPU 0 lane over {horizon:.1}s ---");
        println!("legend: #=compute l=launch T=tp-comm P=pp-comm D=dp-comm R=realloc x=transfer");
        let lane = report.run.trace.render_lane(0, horizon, 100);
        println!("{lane}");
        data.push((name.to_string(), lane));
    }
    save_json("fig10_traces", &data);
}

// ---------------------------------------------------------------- Fig. 11

fn fig11_kernelstats(cache: &mut PlanCache) {
    let mut table = Table::new(vec![
        "setting",
        "plan",
        "compute",
        "tp-comm",
        "pp-comm",
        "dp-comm",
        "launch",
        "realloc+xfer",
    ]);
    let mut data = Vec::new();
    for s in breakdown_settings() {
        let planned = cache.plan(&s).clone();
        for (name, plan) in [
            ("ReaL", &planned.searched),
            ("heuristic", &planned.heuristic),
        ] {
            let Some(report) = cache.run(&s, plan, EngineConfig::default(), 2) else {
                continue;
            };
            let frac = report.run.category_fractions();
            let get = |c: Category| {
                frac.iter()
                    .find(|(k, _)| *k == c)
                    .map(|(_, f)| *f)
                    .unwrap_or(0.0)
            };
            table.row(vec![
                s.name.clone(),
                name.to_string(),
                format!("{:.1}%", get(Category::Compute) * 100.0),
                format!("{:.1}%", get(Category::TpComm) * 100.0),
                format!("{:.1}%", get(Category::PpComm) * 100.0),
                format!("{:.1}%", get(Category::DpComm) * 100.0),
                format!("{:.1}%", get(Category::Launch) * 100.0),
                format!(
                    "{:.2}%",
                    (get(Category::Realloc) + get(Category::Transfer)) * 100.0
                ),
            ]);
            let frac_named: Vec<(String, f64)> =
                frac.iter().map(|&(c, f)| (c.to_string(), f)).collect();
            data.push((s.name.clone(), name.to_string(), frac_named));
        }
    }
    println!("{table}\n(GPU busy-time split; broadcasts should be much smaller than compute)");
    save_json("fig11_kernelstats", &data);
}

// ---------------------------------------------------------------- Fig. 12

fn fig12_estimator(cache: &mut PlanCache) {
    // Left: profiling cost per model family.
    let mut left = Table::new(vec!["model", "profiling (simulated)"]);
    let mut left_data = Vec::new();
    for size in ["7b", "13b", "34b", "70b"] {
        let model = ModelSpec::by_size(size).unwrap();
        let mut profiler = Profiler::new(ClusterSpec::h100(1), ProfileConfig::paper(), 17);
        let db = profiler.profile(&model);
        left.row(vec![
            size.to_uppercase(),
            format!("{:.0}s", db.profiling_secs()),
        ]);
        left_data.push((size.to_string(), db.profiling_secs()));
    }
    println!("{left}\n(paper: < 4 minutes per model)");

    // Right: estimated vs simulated-run time for searched and heuristic
    // plans in every weak-scaling setting.
    let mut right = Table::new(vec![
        "setting",
        "plan",
        "estimated (s)",
        "measured (s)",
        "rel err",
    ]);
    let mut right_data = Vec::new();
    let mut ordering_ok = true;
    for s in weak_scaling() {
        let planned = cache.plan(&s).clone();
        let exp = ppo_experiment(&s);
        let (est, _) = exp.prepare();
        let mut pair = Vec::new();
        for (name, plan) in [
            ("ReaL", &planned.searched),
            ("heuristic", &planned.heuristic),
        ] {
            let estimated = est.time_cost(plan);
            let measured = cache
                .run(&s, plan, EngineConfig::default(), 2)
                .map(|r| r.run.iter_time)
                .unwrap_or(f64::NAN);
            let rel = ((estimated - measured) / measured).abs();
            right.row(vec![
                s.name.clone(),
                name.to_string(),
                format!("{estimated:.1}"),
                format!("{measured:.1}"),
                format!("{:.0}%", rel * 100.0),
            ]);
            pair.push((estimated, measured));
            right_data.push((s.name.clone(), name.to_string(), estimated, measured));
        }
        // Order preservation: estimator ranks searched below heuristic iff
        // the runtime does.
        if pair.len() == 2 {
            ordering_ok &= (pair[0].0 < pair[1].0) == (pair[0].1 < pair[1].1);
        }
    }
    println!("{right}\nrelative ordering preserved across plans: {ordering_ok}");
    save_json("fig12_estimator", &(left_data, right_data));
}

// ---------------------------------------------------------------- Fig. 13

fn fig13_search(cache: &mut PlanCache) {
    let mut table = Table::new(vec!["setting", "t (s)", "best TimeCost (s)", "improvement"]);
    let mut data = Vec::new();
    for s in weak_scaling() {
        let planned = cache.plan(&s).clone();
        let trace = &planned.search.trace;
        // Reference for the improvement ratio: the worst point of the trace
        // (the greedy seed may be OOM-penalized, making its raw TimeCost an
        // unrepresentative reference).
        let reference = trace.iter().map(|&(_, c)| c).fold(f64::NAN, f64::max);
        for &(t, c) in trace.iter() {
            table.row(vec![
                s.name.clone(),
                format!("{t:.1}"),
                format!("{c:.1}"),
                format!("{:.2}x", reference / c),
            ]);
        }
        data.push((s.name.clone(), trace.clone()));
    }
    println!("{table}\n(improvement ratio vs the worst visited feasible-best, per setting)");
    save_json("fig13_search", &data);
}

// ---------------------------------------------------------------- Fig. 14

fn fig14_pruning(_: &mut PlanCache) {
    // 1024 GPUs: 128 nodes, 70B actor.
    let s = Setting::new(128, ModelSpec::llama3_70b(), 4096 * 8);
    let cluster = s.cluster();
    let exp = ppo_experiment(&s);
    let graph = exp.graph().clone();
    let (est, _) = exp.prepare();

    let mut table = Table::new(vec![
        "prune level",
        "log10(plans)",
        "best TimeCost after budget (s)",
        "feasible",
    ]);
    let mut data = Vec::new();
    for level in [
        PruneLevel::Aggressive,
        PruneLevel::Moderate,
        PruneLevel::Light,
    ] {
        let space = SearchSpace::build(&cluster, &graph, level);
        let cfg = McmcConfig {
            max_steps: 8_000,
            time_limit: Duration::from_secs(45),
            record_trace: false,
            ..McmcConfig::default()
        };
        let result = search(&est, &space, &cfg);
        table.row(vec![
            format!("{level:?}"),
            format!("{:.0}", space.log10_size()),
            format!("{:.1}", result.best_time_cost),
            result.feasible.to_string(),
        ]);
        data.push((
            format!("{level:?}"),
            space.log10_size(),
            result.best_time_cost,
        ));
    }
    println!("{table}\n(tighter pruning → faster convergence at 1024 GPUs)");
    save_json("fig14_pruning", &data);
}

// ---------------------------------------------------------------- Fig. 15

fn fig15_optimality(_: &mut PlanCache) {
    let cases = vec![
        ("bs64/ctx2048", RlhfConfig::instruct_gpt(64)),
        (
            "bs128/ctx1024",
            RlhfConfig::instruct_gpt(128).with_context_scale(1),
        ),
        ("bs32/ctx4096", {
            let mut c = RlhfConfig::instruct_gpt(128);
            c = c.with_context_scale(4);
            c
        }),
    ];
    let mut table = Table::new(vec![
        "setting",
        "budget",
        "MCMC best (s)",
        "brute-force optimum (s)",
        "ratio",
    ]);
    let mut data = Vec::new();
    for (name, mut cfg) in cases {
        if name == "bs128/ctx1024" {
            cfg.prompt_len = 512;
            cfg.gen_len = 512;
        }
        let exp = Experiment::ppo(
            ClusterSpec::h100(1),
            ModelSpec::llama3_7b(),
            ModelSpec::llama3_7b().critic(),
            cfg,
        )
        .with_seed(23);
        let (est, _) = exp.prepare();
        let space = exp.search_space();
        let brute = brute_force(
            &est,
            &space,
            &BruteConfig {
                top_k: 6,
                time_limit: Duration::from_secs(180),
            },
        );
        for steps in [200u64, 2_000, 20_000] {
            let cfg = McmcConfig {
                max_steps: steps,
                time_limit: Duration::from_secs(120),
                record_trace: false,
                ..McmcConfig::default()
            };
            let r = search(&est, &space, &cfg);
            table.row(vec![
                name.to_string(),
                format!("{steps} steps"),
                format!("{:.2}", r.best_time_cost),
                format!("{:.2}", brute.best_time_cost),
                format!("{:.3}", brute.best_time_cost / r.best_time_cost),
            ]);
            data.push((
                name.to_string(),
                steps,
                r.best_time_cost,
                brute.best_time_cost,
            ));
        }
    }
    println!("{table}\n(ratio ≥ ~0.95 reproduces the paper's near-optimality claim; MCMC searches the full pruned space and may beat the truncated brute force)");
    save_json("fig15_optimality", &data);
}

// ---------------------------------------------------------------- Fig. 16

fn fig16_algorithms(_: &mut PlanCache) {
    let cluster = ClusterSpec::h100(16);
    let actor = ModelSpec::llama3_70b();
    let reward = ModelSpec::llama3_7b().critic();
    let cfg = RlhfConfig::instruct_gpt(512);
    let grpo_cfg = RlhfConfig {
        grpo_group: 8,
        ..RlhfConfig::instruct_gpt(64)
    };

    let experiments = vec![
        ("DPO", Experiment::dpo(cluster.clone(), actor.clone(), cfg)),
        (
            "ReMax",
            Experiment::remax(cluster.clone(), actor.clone(), reward.clone(), cfg),
        ),
        (
            "GRPO",
            Experiment::grpo(cluster.clone(), actor.clone(), reward.clone(), grpo_cfg),
        ),
    ];
    let mut table = Table::new(vec!["algorithm", "heuristic tok/s", "ReaL tok/s", "gain"]);
    let mut data = Vec::new();
    for (name, exp) in experiments {
        let exp = exp.with_seed(29);
        println!("--- {name} dataflow DAG ---\n{}", to_ascii(exp.graph()));
        let mcmc = McmcConfig {
            max_steps: 40_000,
            time_limit: Duration::from_secs(20),
            ..McmcConfig::default()
        };
        let planned = match exp.plan_auto(&mcmc) {
            Ok(p) => p,
            Err(_) => {
                println!("{name}: no feasible searched plan");
                continue;
            }
        };
        let heuristic = exp.plan_heuristic().unwrap();
        let h = exp.run(&heuristic, 2).ok().map(|r| r.tokens_per_sec);
        let r = exp.run(&planned.plan, 2).ok().map(|r| r.tokens_per_sec);
        let gain = match (h, r) {
            (Some(h), Some(r)) if h > 0.0 => format!("{:.0}%", (r / h - 1.0) * 100.0),
            _ => "n/a".into(),
        };
        table.row(vec![name.to_string(), cell(h), cell(r), gain]);
        data.push((name.to_string(), h, r));
    }
    println!("{table}\n(paper: avg ~87% gain; ReMax largest via concurrent generations, GRPO most modest)");
    save_json("fig16_algorithms", &data);
}

// ---------------------------------------------------------------- Fig. 17

fn fig17_scaling(cache: &mut PlanCache) {
    let mut table = Table::new(vec![
        "actor",
        "GPUs",
        "tok/s",
        "scaling vs half",
        "static mem util",
    ]);
    let mut data = Vec::new();
    for (size, node_range) in [
        ("7b", vec![1u32, 2, 4, 8]),
        ("13b", vec![1, 2, 4, 8]),
        ("34b", vec![2, 4, 8, 16]),
        ("70b", vec![4, 8, 16]),
    ] {
        let mut prev: Option<f64> = None;
        for nodes in node_range {
            let s = Setting::new(nodes, ModelSpec::by_size(size).unwrap(), 512);
            let planned = cache.plan(&s).clone();
            let Some(report) = cache.run(&s, &planned.searched, EngineConfig::default(), 2) else {
                continue;
            };
            let tput = report.tokens_per_sec;
            let scaling = prev
                .map(|p| format!("{:.2}x", tput / p))
                .unwrap_or_else(|| "-".into());
            table.row(vec![
                size.to_uppercase(),
                (nodes * 8).to_string(),
                format!("{tput:.0}"),
                scaling,
                format!("{:.0}%", report.run.static_utilization * 100.0),
            ]);
            data.push((
                size.to_string(),
                nodes * 8,
                tput,
                report.run.static_utilization,
            ));
            prev = Some(tput);
        }
    }
    println!("{table}\n(>2x per doubling = super-linear; small models flatten early — Fig. 17)");
    save_json("fig17_scaling", &data);
}

// ------------------------------------------------------------ Tables 2–5

fn table2to5_plans(cache: &mut PlanCache) {
    for s in breakdown_settings() {
        let planned = cache.plan(&s).clone();
        let exp = ppo_experiment(&s);
        println!("--- {}: searched plan (Tables 2/4 analogue) ---", s.name);
        println!("{}", planned.searched.render(exp.graph()));
        println!("--- {}: heuristic plan (Tables 3/5 analogue) ---", s.name);
        println!("{}", planned.heuristic.render(exp.graph()));
    }
}

// -------------------------------------------------------------- Table 6

fn table6_breakdown(cache: &mut PlanCache) {
    let mut data = Vec::new();
    for s in breakdown_settings() {
        let planned = cache.plan(&s).clone();
        let mut table = Table::new(vec![
            "call",
            "ReaL",
            "heuristic",
            "ReaL (no graphs)",
            "heuristic (no graphs)",
        ]);
        let configs = [
            ("ReaL", &planned.searched, true),
            ("heuristic", &planned.heuristic, true),
            ("ReaL-ng", &planned.searched, false),
            ("heuristic-ng", &planned.heuristic, false),
        ];
        let mut reports = Vec::new();
        for (_, plan, graphed) in configs {
            let cfg = EngineConfig {
                cuda_graph: graphed,
                ..EngineConfig::default()
            };
            reports.push(cache.run(&s, plan, cfg, 2));
        }
        let names: Vec<String> = ppo_experiment(&s)
            .graph()
            .calls()
            .iter()
            .map(|c| c.call_name.clone())
            .collect();
        for name in &names {
            let cells: Vec<String> = reports
                .iter()
                .map(|r| {
                    r.as_ref()
                        .and_then(|r| r.run.call_mean(name))
                        .map(|v| format!("{v:.1}"))
                        .unwrap_or_else(|| "OOM".into())
                })
                .collect();
            table.row(std::iter::once(name.clone()).chain(cells).collect());
        }
        let e2e: Vec<String> = reports
            .iter()
            .map(|r| {
                r.as_ref()
                    .map(|r| format!("{:.1}", r.run.iter_time))
                    .unwrap_or_else(|| "OOM".into())
            })
            .collect();
        table.row(
            std::iter::once("end2end".to_string())
                .chain(e2e.clone())
                .collect(),
        );
        println!("--- {} wall-time breakdown (s) ---\n{table}", s.name);
        data.push((s.name.clone(), e2e));
    }
    save_json("table6_breakdown", &data);
}
