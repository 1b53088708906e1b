//! Elastic re-planning end-to-end: a seeded permanent crash, a policy that
//! switches the run to a plan searched on the surviving GPUs, and the
//! observability surface the switch leaves behind.

use real_core::prelude::*;

/// One h100 node running quick-profiled PPO, with a FaultPlan that kills
/// GPU 3 mid-run (during the second iteration's generation, once every
/// model has an established parameter layout) and never restarts it within
/// the run's horizon.
fn faulted_experiment(batch: u64) -> Experiment {
    let engine = EngineConfig {
        seed: 17,
        trace_capacity: 8192,
        fault_plan: Some(FaultPlan::new(23).crash(3, 12.0, 1.0e6)),
        ..EngineConfig::default()
    };
    Experiment::ppo(
        ClusterSpec::h100(1),
        ModelSpec::llama3_7b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(batch),
    )
    .with_quick_profile()
    .with_seed(17)
    .with_engine_config(engine)
}

fn quick_policy() -> ReplanPolicy {
    ReplanPolicy::new().with_search_steps(300)
}

#[test]
fn replan_beats_retry_only_after_permanent_crash() {
    let exp = faulted_experiment(32);
    let plan = exp.plan_heuristic().unwrap();

    // Retry-only: the run waits out the (effectively infinite) restart.
    let waited = exp.run(&plan, 2).expect("plan fits");
    assert!(waited.run.total_time > 1.0e6, "{}", waited.run.total_time);
    assert!(waited.run.replan.is_empty());

    // With a policy: one DeadWorker trigger, one committed switch, and a
    // strictly higher simulated throughput.
    let exp = faulted_experiment(32).with_replan_policy(quick_policy());
    let replanned = exp.run(&plan, 2).expect("plan fits");
    assert_eq!(
        replanned.run.replan.switches, 1,
        "{:?}",
        replanned.run.replan
    );
    assert!(matches!(
        replanned.run.replan.events[0].reason,
        ReplanReason::DeadWorker { gpu: 3 }
    ));
    assert!(
        replanned.run.total_time < waited.run.total_time / 100.0,
        "replanned {} vs waited {}",
        replanned.run.total_time,
        waited.run.total_time
    );
    assert!(replanned.tokens_per_sec > waited.tokens_per_sec);

    // The switch is visible in the Chrome trace (decision lane) …
    let stream = exp.event_stream(&replanned);
    stream.check_invariants().unwrap();
    let chrome = real_core::real_obs::chrome::to_chrome_string(&stream);
    assert!(chrome.contains("dead-worker@gpu3"), "decision lane missing");
    assert!(chrome.contains("switch prologue"), "prologue span missing");

    // … and in the metrics registry.
    let snap = exp.metrics(&replanned, None).snapshot();
    let switches = snap
        .metrics
        .iter()
        .find(|e| e.name == "runtime/replan_switches")
        .expect("runtime/replan_switches present");
    match &switches.value {
        real_core::real_obs::MetricValue::Counter(v) => assert_eq!(*v, 1.0),
        other => panic!("expected a counter, got {other:?}"),
    }
}

#[test]
fn replanned_experiment_is_deterministic() {
    let run = || {
        let exp = faulted_experiment(32).with_replan_policy(quick_policy());
        let plan = exp.plan_heuristic().unwrap();
        let report = exp.run(&plan, 1).expect("plan fits");
        (
            report.run.total_time,
            serde_json::to_string(&report.run.replan).unwrap(),
        )
    };
    let (time_a, replan_a) = run();
    let (time_b, replan_b) = run();
    assert_eq!(time_a, time_b);
    assert_eq!(replan_a, replan_b);
}

#[test]
fn replan_policy_without_faults_is_inert() {
    let exp = Experiment::ppo(
        ClusterSpec::h100(1),
        ModelSpec::llama3_7b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(32),
    )
    .with_quick_profile()
    .with_seed(17);
    let plan = exp.plan_heuristic().unwrap();
    let plain = exp.run(&plan, 1).unwrap();
    let with_policy = exp
        .clone()
        .with_replan_policy(quick_policy())
        .run(&plan, 1)
        .unwrap();
    assert_eq!(plain.run.iter_time, with_policy.run.iter_time);
    assert_eq!(plain.run.total_time, with_policy.run.total_time);
    assert!(with_policy.run.replan.is_empty());
}
