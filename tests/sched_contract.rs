//! `real sched`'s behaviour contract: the `SchedReport` of a planned and
//! executed schedule plus every tenant's `RunReport`, with exact f64
//! bits, pinned in a committed JSON fixture.
//!
//! Five workloads: a disjoint DPO pair; the same pair with every GPU of
//! the second tenant's fault domain crashing early; two PPO 13B tenants
//! that only fit one node whole, so they share it; an elastic long tenant
//! beside a one-iteration short one; and `examples/tenants.json`. Each
//! tenant traces its kernels, so the rows pin trace digests too.
//!
//! Regenerate deliberately with
//! `BLESS=1 cargo test -p real-core --test sched_contract`.

use real_core::prelude::*;
use real_sched::{SchedConfig, SchedSpec, Scheduler};
use real_serve::run_sched;
use serde_json::Value;

mod contract;

use contract::{assert_matches_fixture, obj, report_json, to_bits_json};

/// Turns kernel tracing on in the tenant's own engine config.
fn traced(exp: Experiment) -> Experiment {
    let config = EngineConfig {
        trace_capacity: 50_000,
        ..exp.engine_config().clone()
    };
    exp.with_engine_config(config)
}

fn dpo(cluster: &ClusterSpec, batch: u64) -> Experiment {
    traced(
        Experiment::dpo(
            cluster.clone(),
            ModelSpec::llama3_7b(),
            RlhfConfig::instruct_gpt(batch),
        )
        .with_quick_profile(),
    )
}

fn quick(seed: u64) -> SchedConfig {
    SchedConfig {
        seed,
        refine_steps: 200,
        ..SchedConfig::default()
    }
}

/// Plans and runs `tenants`, then records the report and every run.
fn sched_row(cluster: &ClusterSpec, config: SchedConfig, tenants: &[Tenant]) -> Value {
    let scheduler = Scheduler::new(cluster.clone()).with_config(config);
    let outcome = run_sched(&scheduler, tenants).unwrap();
    obj(vec![
        ("report", to_bits_json(&outcome.report)),
        (
            "runs",
            Value::Array(outcome.reports.iter().map(report_json).collect()),
        ),
    ])
}

fn cases() -> Vec<(String, Value)> {
    let mut cases = Vec::new();
    let two = ClusterSpec::h100(2);
    let pair = |dev: Experiment| {
        vec![
            Tenant::new("prod", 0, dpo(&two, 64)).with_priority(2.0),
            Tenant::new("dev", 1, dev),
        ]
    };
    cases.push((
        "disjoint_pair",
        sched_row(&two, quick(11), &pair(dpo(&two, 32))),
    ));

    let crashes = (0..two.total_gpus()).fold(FaultPlan::new(3), |p, gpu| p.crash(gpu, 2.0, 5.0));
    let faulted = pair(dpo(&two, 32).with_fault_plan(crashes));
    cases.push(("faulted_cotenant", sched_row(&two, quick(5), &faulted)));

    let one = ClusterSpec::h100(1);
    let ppo_13b = |name: &str, id| {
        let exp = Experiment::ppo(
            one.clone(),
            ModelSpec::llama3_13b(),
            ModelSpec::llama3_13b().critic(),
            RlhfConfig::instruct_gpt(32),
        )
        .with_quick_profile();
        Tenant::new(name, id, traced(exp)).with_iterations(1)
    };
    let shared = vec![ppo_13b("a", 0), ppo_13b("b", 1)];
    let no_refine = SchedConfig {
        refine_steps: 0,
        ..SchedConfig::default()
    };
    cases.push(("time_shared_pair", sched_row(&one, no_refine, &shared)));

    let policy = ReplanPolicy {
        min_speedup: 1.0,
        min_benefit_ratio: 0.0,
        search_steps: 500,
        ..ReplanPolicy::default()
    };
    let elastic = vec![
        Tenant::new("long", 0, dpo(&two, 64).with_replan_policy(policy)).with_iterations(4),
        Tenant::new("short", 1, dpo(&two, 32)).with_iterations(1),
    ];
    cases.push(("elastic_long_short", sched_row(&two, quick(3), &elastic)));

    let json = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/tenants.json"
    ))
    .unwrap();
    let spec: SchedSpec = serde_json::from_str(&json).unwrap();
    let (cluster, tenants) = spec.build().unwrap();
    let config = SchedConfig {
        seed: spec.seed(),
        ..SchedConfig::default()
    };
    cases.push(("example_tenants", sched_row(&cluster, config, &tenants)));
    cases.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

#[test]
fn sched_results_match_the_contract_fixture() {
    assert_matches_fixture("sched_contract.json", "sched results", cases());
}
