//! Integration tests for the multi-tenant scheduler: determinism, fault
//! isolation, oversubscribed time-sharing, and elastic rebalancing.
//!
//! Registered as the `scheduling` test target of `real-serve` (see
//! `crates/serve/Cargo.toml`), whose event loop executes the schedules, so
//! `cargo test -p real-serve` covers the whole admission → plan → run
//! pipeline.

use real_cluster::ClusterSpec;
use real_core::{Experiment, Tenant};
use real_dataflow::algo::RlhfConfig;
use real_estimator::MemoStats;
use real_model::ModelSpec;
use real_runtime::{EngineConfig, ReplanPolicy, RunReport};
use real_sched::{obs, SchedConfig, SchedSpec, Schedule, Scheduler};
use real_serve::{run_sched, run_schedule};
use real_sim::{FaultEvent, FaultPlan};

fn quick_config() -> SchedConfig {
    SchedConfig {
        refine_steps: 200,
        ..SchedConfig::default()
    }
}

fn dpo_tenant(cluster: &ClusterSpec, name: &str, id: u64, batch: u64) -> Tenant {
    let exp = Experiment::dpo(
        cluster.clone(),
        ModelSpec::llama3_7b(),
        RlhfConfig::instruct_gpt(batch),
    )
    .with_quick_profile();
    Tenant::new(name, id, exp)
}

/// `tenant` with kernel tracing on in its own engine config.
fn traced(tenant: Tenant) -> Tenant {
    let config = EngineConfig {
        trace_capacity: 50_000,
        ..tenant.experiment().engine_config().clone()
    };
    let exp = tenant.experiment().clone().with_engine_config(config);
    tenant.with_experiment(exp)
}

fn ppo_13b_tenant(cluster: &ClusterSpec, name: &str, id: u64) -> Tenant {
    let exp = Experiment::ppo(
        cluster.clone(),
        ModelSpec::llama3_13b(),
        ModelSpec::llama3_13b().critic(),
        RlhfConfig::instruct_gpt(32),
    )
    .with_quick_profile();
    Tenant::new(name, id, exp).with_iterations(1)
}

/// Bitwise comparison of everything a tenant observes about its own run.
fn assert_reports_identical(a: &RunReport, b: &RunReport) {
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
    assert_eq!(a.iter_time.to_bits(), b.iter_time.to_bits());
    assert_eq!(a.timings.len(), b.timings.len());
    for (x, y) in a.timings.iter().zip(&b.timings) {
        assert_eq!(x.call_name, y.call_name);
        assert_eq!(x.start.to_bits(), y.start.to_bits());
        assert_eq!(x.end.to_bits(), y.end.to_bits());
    }
    assert_eq!(a.category_totals.len(), b.category_totals.len());
    for ((ca, va), (cb, vb)) in a.category_totals.iter().zip(&b.category_totals) {
        assert_eq!(ca, cb);
        assert_eq!(va.to_bits(), vb.to_bits());
    }
    assert_eq!(a.idle_total.to_bits(), b.idle_total.to_bits());
    assert_eq!(a.mem_peak, b.mem_peak);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.trace.events(), b.trace.events());
}

#[test]
fn seeded_multi_tenant_runs_replay_bit_identically() {
    let cluster = ClusterSpec::h100(2);
    let tenants = vec![
        traced(dpo_tenant(&cluster, "prod", 0, 64).with_priority(2.0)),
        traced(dpo_tenant(&cluster, "dev", 1, 32)),
    ];
    let sched = Scheduler::new(cluster).with_config(SchedConfig {
        seed: 11,
        ..quick_config()
    });
    let first = run_sched(&sched, &tenants).unwrap();
    let second = run_sched(&sched, &tenants).unwrap();
    assert_eq!(first.report, second.report);
    for (a, b) in first.reports.iter().zip(&second.reports) {
        assert_reports_identical(a, b);
    }
    // Traces replay too, not just the scalar summaries.
    assert!(first.reports.iter().any(|r| !r.trace.events().is_empty()));
}

#[test]
fn cotenant_report_is_byte_identical_to_solo_run_on_same_mesh() {
    // Satellite regression: admitting a co-tenant on the other node must
    // not change tenant `prod`'s report in any bit. Runs the scheduled
    // 2-tenant workload, then replays tenant `prod` alone on the exact
    // mesh the scheduler gave it, with the same seed.
    let cluster = ClusterSpec::h100(2);
    let tenants = vec![
        dpo_tenant(&cluster, "prod", 0, 64),
        dpo_tenant(&cluster, "dev", 1, 32),
    ];
    let sched = Scheduler::new(cluster.clone()).with_config(SchedConfig {
        seed: 7,
        ..quick_config()
    });
    let both = run_sched(&sched, &tenants).unwrap();
    assert!(!both.schedule.oversubscribed);

    // Solo replay: same tenant, same id, same mesh — a 1-tenant schedule
    // holding the placement the scheduler picked.
    let placed = both.schedule.tenants[0].clone();
    let solo = Schedule::new(vec![placed], false, MemoStats::default());
    let solo = run_schedule(&cluster, &tenants[..1], solo, 7).unwrap();
    assert_reports_identical(&both.reports[0], &solo.reports[0]);
}

#[test]
fn faulted_tenant_crash_leaves_cotenant_reports_unchanged() {
    // Fault domains: crash tenant `dev`'s workers mid-run; tenant `prod`'s
    // report (timeline, RNG stream, totals) must not move by a bit.
    let cluster = ClusterSpec::h100(2);
    let clean = |faults: Option<FaultPlan>| {
        let mut exp = Experiment::dpo(
            cluster.clone(),
            ModelSpec::llama3_7b(),
            RlhfConfig::instruct_gpt(32),
        )
        .with_quick_profile();
        if let Some(plan) = faults {
            exp = exp.with_fault_plan(plan);
        }
        vec![
            dpo_tenant(&cluster, "prod", 0, 64),
            Tenant::new("dev", 1, exp),
        ]
    };
    let sched = Scheduler::new(cluster.clone()).with_config(SchedConfig {
        seed: 5,
        ..quick_config()
    });

    // Find dev's allocation first so the crash provably lands inside its
    // fault domain.
    let baseline = run_sched(&sched, &clean(None)).unwrap();
    let dev_gpu = baseline.schedule.tenants[1]
        .allocation
        .gpus()
        .next()
        .unwrap();
    let faults = FaultPlan {
        seed: 0,
        events: vec![FaultEvent::Crash {
            gpu: dev_gpu.0,
            at: 1.0,
            restart_after: 30.0,
        }],
    };
    let faulted = run_sched(&sched, &clean(Some(faults))).unwrap();

    // The crash registered in dev's fault domain...
    assert_eq!(faulted.reports[1].faults.injected, 1);
    // ...and prod's run is untouched, bit for bit.
    assert_reports_identical(&baseline.reports[0], &faulted.reports[0]);
}

#[test]
fn oversubscribed_tenants_time_share_without_deadlock() {
    // PPO(13B+13B) fits only on a full node, so two such tenants on one
    // node cannot split disjointly; the scheduler must fall back to
    // time-sharing, and the second tenant waits for the first.
    let cluster = ClusterSpec::h100(1);
    let tenants = vec![
        ppo_13b_tenant(&cluster, "a", 0),
        ppo_13b_tenant(&cluster, "b", 1),
    ];
    let sched = Scheduler::new(cluster).with_config(SchedConfig {
        refine_steps: 0,
        ..SchedConfig::default()
    });
    let outcome = run_sched(&sched, &tenants).unwrap();
    assert!(outcome.schedule.oversubscribed);
    assert!(outcome.report.oversubscribed);
    for report in &outcome.reports {
        assert_eq!(report.iterations, 1);
        assert!(report.total_time > 0.0);
    }
    let (first, second) = (&outcome.reports[0], &outcome.reports[1]);
    assert!(second.total_time >= first.total_time + second.iter_time);
}

/// A queued tenant's trace sits on the schedule's clock: its kernels start
/// where the tenant it waited for finished, not at t = 0 over it.
#[test]
fn time_shared_trace_draws_the_queued_tenant_after_the_first() {
    let cluster = ClusterSpec::h100(1);
    let tenants = vec![
        traced(ppo_13b_tenant(&cluster, "a", 0)),
        traced(ppo_13b_tenant(&cluster, "b", 1)),
    ];
    let sched = Scheduler::new(cluster).with_config(SchedConfig {
        refine_steps: 0,
        ..SchedConfig::default()
    });
    let outcome = run_sched(&sched, &tenants).unwrap();
    assert!(outcome.schedule.oversubscribed);
    assert_eq!(outcome.admitted_secs[0], 0.0);
    let first_finish = outcome.reports[0].total_time;
    assert!(outcome.admitted_secs[1] >= first_finish);

    let stream = obs::sched_event_stream(
        &tenants,
        &outcome.schedule,
        &outcome.reports,
        &outcome.admitted_secs,
    );
    stream.check_invariants().unwrap();
    let set = real_obs::critpath::reconstruct_spans(&stream);
    let first_kernel = |tenant: &str| {
        set.spans()
            .iter()
            .filter(|s| set.str(s.category) == "compute")
            .filter(|s| set.process_name(set.lane(s.lane).pid) == Some(tenant))
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min)
    };
    assert!(first_kernel("tenant:a") < first_finish);
    let queued = first_kernel("tenant:b");
    assert!(queued.is_finite(), "the queued tenant traced its kernels");
    assert!(
        queued >= first_finish,
        "queued tenant's first kernel at {queued} s, before the first tenant's finish at {first_finish} s"
    );
}

#[test]
fn freed_capacity_is_offered_to_the_elastic_survivor() {
    // Tenant `short` finishes after 1 iteration; its node joins the free
    // pool and must be offered to `long` through the re-plan gate.
    let cluster = ClusterSpec::h100(2);
    let policy = ReplanPolicy {
        min_speedup: 1.0,
        min_benefit_ratio: 0.0,
        search_steps: 500,
        ..ReplanPolicy::default()
    };
    let long = {
        let exp = Experiment::dpo(
            cluster.clone(),
            ModelSpec::llama3_7b(),
            RlhfConfig::instruct_gpt(64),
        )
        .with_quick_profile()
        .with_replan_policy(policy);
        Tenant::new("long", 0, exp).with_iterations(4)
    };
    let short = dpo_tenant(&cluster, "short", 1, 32).with_iterations(1);
    let sched = Scheduler::new(cluster).with_config(SchedConfig {
        seed: 3,
        ..quick_config()
    });
    let outcome = run_sched(&sched, &[long, short]).unwrap();
    let long_report = &outcome.reports[0];
    assert!(
        long_report.replan.evaluations >= 1,
        "the freed node was never offered: {:?}",
        long_report.replan
    );
    assert_eq!(
        outcome.report.tenants[0].reallocs,
        long_report.replan.switches
    );
}

#[test]
fn example_spec_parses_plans_and_reports() {
    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/tenants.json"
    ))
    .unwrap();
    let spec: SchedSpec = serde_json::from_str(&json).unwrap();
    assert!(spec.tenants.len() >= 3, "example must pack >= 3 tenants");
    let (cluster, tenants) = spec.build().unwrap();
    let sched = Scheduler::new(cluster).with_config(SchedConfig {
        seed: spec.seed(),
        refine_steps: 100,
        ..SchedConfig::default()
    });
    let schedule = sched.plan(&tenants).unwrap();
    assert_eq!(schedule.tenants.len(), spec.tenants.len());
    let rendered = schedule.render();
    for t in &spec.tenants {
        assert!(rendered.contains(&t.name), "schedule lists `{}`", t.name);
    }
}

#[test]
fn sched_observability_covers_every_tenant() {
    let cluster = ClusterSpec::h100(2);
    let tenants = vec![
        traced(dpo_tenant(&cluster, "prod", 0, 64)),
        traced(dpo_tenant(&cluster, "dev", 1, 32)),
    ];
    let sched = Scheduler::new(cluster).with_config(quick_config());
    let outcome = run_sched(&sched, &tenants).unwrap();

    let stream = obs::sched_event_stream(
        &tenants,
        &outcome.schedule,
        &outcome.reports,
        &outcome.admitted_secs,
    );
    stream.check_invariants().unwrap();
    let procs: Vec<&str> = stream.process_names().map(|(_, name)| name).collect();
    assert!(procs.contains(&"tenant:prod") && procs.contains(&"tenant:dev"));
    assert!(!stream.events().is_empty());

    let metrics = obs::sched_metrics(&outcome.report);
    assert!(metrics.get("sched/tenants", &[]).is_some());
    assert!(metrics.get("sched/fairness_index", &[]).is_some());
    assert!(metrics
        .get("sched/stretch", &[("tenant", "prod")])
        .is_some());
}

/// The tenant export is each tenant's solo recording in its own process
/// group: call spans take their phase from the tenant's dataflow graph (a
/// DSL generation call named `rollout` still reads as generation), and a
/// faulted tenant shows its retry-backoff windows, fault lanes and abort
/// instants, so `ProfileReport` attributes both phases.
#[test]
fn tenant_export_takes_phases_from_the_graph_and_keeps_fault_lanes() {
    let cluster = ClusterSpec::h100(2);
    let spec: real_dataflow::GraphSpec = serde_json::from_str(
        r#"{
          "models": [{"role": "policy", "arch": "7b"}],
          "data": ["prompts"],
          "calls": [
            {"name": "rollout", "model": "policy", "kind": "gen",
             "batch": 32, "prompt_len": 256, "gen_len": 256,
             "inputs": ["prompts"], "outputs": ["seq"]},
            {"name": "update", "model": "policy", "kind": "train",
             "batch": 32, "seq_len": 512, "inputs": ["seq"]}
          ]
        }"#,
    )
    .unwrap();
    let dsl = Experiment::from_graph(cluster.clone(), &spec)
        .unwrap()
        .with_quick_profile();
    // Every GPU is down for two seconds early on, whichever node the
    // faulted tenant lands on.
    let crashes =
        (0..cluster.total_gpus()).fold(FaultPlan::new(3), |p, gpu| p.crash(gpu, 3.0, 2.0));
    let faulted = Experiment::dpo(
        cluster.clone(),
        ModelSpec::llama3_7b(),
        RlhfConfig::instruct_gpt(32),
    )
    .with_quick_profile()
    .with_fault_plan(crashes);
    let tenants = vec![
        traced(Tenant::new("dsl", 0, dsl)),
        traced(Tenant::new("faulted", 1, faulted)),
    ];
    let sched = Scheduler::new(cluster).with_config(quick_config());
    let outcome = run_sched(&sched, &tenants).unwrap();
    assert!(outcome.reports[1].faults.crashes >= 1);

    let stream = obs::sched_event_stream(
        &tenants,
        &outcome.schedule,
        &outcome.reports,
        &outcome.admitted_secs,
    );
    stream.check_invariants().unwrap();
    let spans = real_obs::critpath::reconstruct_spans(&stream);
    let has = |name: &str, category: &str| {
        spans
            .spans()
            .iter()
            .any(|s| spans.str(s.name).starts_with(name) && spans.str(s.category) == category)
    };
    assert!(has("rollout#", "call/gen"));
    assert!(has("update#", "call/train"));
    assert!(has("backoff#", "backoff"));
    assert!(has("crash+restart", "fault"));

    let profile = real_obs::ProfileReport::from_stream(&stream, 5);
    let share = |phase: &str| {
        profile
            .phases
            .iter()
            .find(|p| p.phase == phase)
            .map_or(0.0, |p| p.share)
    };
    assert!(share("generation") > 0.0, "{:?}", profile.phases);
    assert!(share("retry-backoff") > 0.0, "{:?}", profile.phases);
}
