//! Profiling integration tests: critical-path and phase-attribution
//! invariants over randomly generated span streams, a golden
//! [`ProfileReport`] JSON fixture, and cross-run determinism of the
//! profile an experiment produces.

use proptest::prelude::*;
use real_core::prelude::*;
use real_core::real_obs::critpath::{makespan, reconstruct_spans, CriticalPath, EPS};
use real_core::real_obs::profile::attribute_phases;
use real_core::real_obs::{EventStream, LaneId, ProfileReport};

/// Categories mixing phase-bearing and kernel-level spans.
const CATS: &[&str] = &[
    "call/gen",
    "call/train",
    "call/inf",
    "realloc",
    "transfer",
    "backoff",
    "compute",
];

/// Builds a well-formed stream from per-lane `(gap, dur, nest, cat)` walks:
/// each tuple appends one top-level span after `gap` idle seconds, with a
/// nested child strictly inside it.
fn build_stream(lanes: &[Vec<(f64, f64, f64, usize)>]) -> EventStream {
    let mut s = EventStream::with_capacity(1 << 14);
    for (li, spans) in lanes.iter().enumerate() {
        let lane = LaneId::gpu(0, li as u32);
        let mut t = 0.0;
        for &(gap, dur, nest, cat) in spans {
            let start = t + gap;
            let end = start + dur;
            s.begin(lane, "outer", CATS[cat % CATS.len()], start);
            let c0 = start + 0.25 * nest * dur;
            let c1 = start + (0.25 + 0.5 * nest) * dur;
            s.span(lane, "inner", CATS[(cat + 1) % CATS.len()], c0, c1);
            s.end(lane, end);
            t = end;
        }
    }
    s
}

proptest! {
    #[test]
    fn critical_path_tiles_the_makespan(
        lanes in proptest::collection::vec(
            proptest::collection::vec(
                (0.0..2.0f64, 0.01..4.0f64, 0.1..0.9f64, 0usize..7),
                0..6,
            ),
            1..4,
        )
    ) {
        let stream = build_stream(&lanes);
        prop_assert!(stream.check_invariants().is_ok());
        let spans = reconstruct_spans(&stream);
        let total = makespan(&spans);
        let cp = CriticalPath::extract(&spans, total);

        // The path never gates more time than the run took, and span +
        // wait seconds conserve the makespan exactly.
        prop_assert!(cp.span_seconds <= total + 1e-6);
        prop_assert!(cp.wait_seconds >= -1e-9);
        prop_assert!((cp.span_seconds + cp.wait_seconds - total).abs() < 1e-6);

        // Segments tile [0, makespan] with no gaps or overlaps.
        if !cp.segments.is_empty() {
            prop_assert!(cp.segments[0].start.abs() < 1e-9);
            prop_assert!((cp.segments.last().unwrap().end - total).abs() < 1e-9);
            for w in cp.segments.windows(2) {
                prop_assert!((w[0].end - w[1].start).abs() < 1e-9);
            }
            for seg in &cp.segments {
                prop_assert!(seg.end >= seg.start - EPS);
            }
        }
    }

    #[test]
    fn phase_attribution_conserves_the_makespan(
        lanes in proptest::collection::vec(
            proptest::collection::vec(
                (0.0..2.0f64, 0.01..4.0f64, 0.1..0.9f64, 0usize..7),
                0..6,
            ),
            1..4,
        )
    ) {
        let stream = build_stream(&lanes);
        let spans = reconstruct_spans(&stream);
        let total = makespan(&spans);
        let phases = attribute_phases(&spans, total);
        let sum: f64 = phases.iter().map(|p| p.seconds).sum();
        prop_assert!((sum - total).abs() < 1e-6, "phases sum {sum} vs makespan {total}");
        for p in &phases {
            prop_assert!(p.seconds >= -1e-9, "negative phase {:?}", p.phase);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&p.share));
        }
    }
}

/// The golden fixture pins the exact ProfileReport JSON for a small
/// hand-built stream: field order, float formatting, phase ordering, and
/// critical-path ranking are all part of the contract (`real profile
/// --check` diffs reports across commits). Regenerate deliberately with
/// `BLESS=1 cargo test -p real-core --test profiling`.
#[test]
fn profile_report_matches_golden_fixture() {
    let mut s = EventStream::with_capacity(64);
    let master = LaneId::master();
    s.set_lane_name(master, "master", "ctl");
    s.span(master, "actor_gen#0", "call/gen", 0.0, 4.0);
    s.span(master, "actor_train#0", "call/train", 4.0, 7.0);
    let gpu = LaneId::gpu(0, 0);
    s.set_lane_name(gpu, "node0", "gpu0");
    s.span(gpu, "fwd", "compute", 0.5, 3.0);
    s.span(gpu, "grad", "compute", 4.0, 5.5);
    s.span(gpu, "allreduce", "dp-comm", 5.0, 6.5);
    s.span(gpu, "realloc", "realloc", 6.5, 7.0);
    let report = ProfileReport::from_stream(&s, 5);
    let json = serde_json::to_string_pretty(&report).unwrap();

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/profile_report.json"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &json).unwrap();
    }
    let expected = std::fs::read_to_string(path).unwrap();
    assert_eq!(json, expected, "fixture drifted; BLESS=1 to regenerate");
}

#[test]
fn same_seed_runs_produce_byte_identical_profiles() {
    let profile_once = || {
        let cluster = ClusterSpec::h100(1);
        let actor = ModelSpec::llama3_7b();
        let critic = actor.critic();
        let exp = Experiment::ppo(cluster, actor, critic, RlhfConfig::instruct_gpt(32))
            .with_seed(7)
            .with_quick_profile()
            .with_engine_config(EngineConfig {
                trace_capacity: 500_000,
                ..EngineConfig::default()
            });
        let plan = exp.plan_heuristic().unwrap();
        let report = exp.run(&plan, 1).expect("heuristic plan runs");
        let (est, _) = exp.prepare();
        serde_json::to_string_pretty(&exp.profile_report(&report, &est, 10)).unwrap()
    };
    let a = profile_once();
    let b = profile_once();
    assert_eq!(a, b, "same-seed profiles must be byte-identical");
}

#[test]
fn experiment_profile_attributes_and_reports_the_gap() {
    let cluster = ClusterSpec::h100(1);
    let actor = ModelSpec::llama3_7b();
    let critic = actor.critic();
    let exp = Experiment::ppo(cluster, actor, critic, RlhfConfig::instruct_gpt(32))
        .with_seed(3)
        .with_quick_profile()
        .with_engine_config(EngineConfig {
            trace_capacity: 500_000,
            ..EngineConfig::default()
        });
    let plan = exp.plan_heuristic().unwrap();
    let report = exp.run(&plan, 1).expect("heuristic plan runs");
    let (est, _) = exp.prepare();
    let profile = exp.profile_report(&report, &est, 10);

    assert!(
        profile.attributed_fraction() >= 0.95,
        "only {:.1}% of the makespan attributed",
        profile.attributed_fraction() * 100.0
    );
    assert!((profile.makespan - report.run.total_time).abs() < 1e-6);
    // Every call shows up in the Fig. 12-style gap table.
    assert_eq!(profile.estimator_gap.len(), exp.graph().n_calls());
    // Critical path is non-trivial and bounded by the makespan.
    assert!(!profile.critical_path.is_empty());
    assert!(profile.crit_span_seconds <= profile.makespan + 1e-6);
}

fn assignment(mesh: DeviceMesh, dp: u32, tp: u32, pp: u32, mbs: u32) -> CallAssignment {
    CallAssignment::new(mesh, ParallelStrategy::new(dp, tp, pp, mbs).unwrap()).unwrap()
}

fn traced_ppo(cluster: &ClusterSpec, batch: u64, seed: u64) -> Experiment {
    Experiment::ppo(
        cluster.clone(),
        ModelSpec::llama3_7b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(batch),
    )
    .with_quick_profile()
    .with_seed(seed)
    .with_engine_config(EngineConfig {
        seed,
        trace_capacity: 1 << 16,
        ..EngineConfig::default()
    })
}

fn uniform(exp: &Experiment, a: CallAssignment) -> ExecutionPlan {
    ExecutionPlan::new(exp.graph(), exp.cluster(), vec![a; exp.graph().n_calls()]).unwrap()
}

/// Finished runs that exercise every emitter of the run recorder: plain
/// PPO with reallocations, speculative generation (gen sub-rows), a
/// crash with retries (backoff and fault spans), a dead-worker re-plan
/// (decision lane) and an async `s = 1` run (overflow call lanes).
fn emitter_runs() -> Vec<(&'static str, Experiment, ExperimentReport)> {
    let mut runs = Vec::new();
    let two = ClusterSpec::h100(2);
    let exp = traced_ppo(&two, 32, 5);
    let mut plan = uniform(&exp, assignment(DeviceMesh::full(&two), 2, 8, 1, 4));
    let train = exp.graph().find("actor_train").unwrap();
    plan = plan
        .with_assignment(
            train,
            assignment(DeviceMesh::whole_nodes(&two, 0, 1).unwrap(), 1, 4, 2, 8),
        )
        .unwrap();
    let report = exp.run(&plan, 2).unwrap();
    runs.push(("plain", exp.clone(), report));

    let base = uniform(
        &exp,
        assignment(DeviceMesh::whole_nodes(&two, 0, 1).unwrap(), 1, 8, 1, 8),
    );
    let draft = real_core::real_dataflow::SpecChoice {
        config: SpecDecodeConfig {
            draft_model: ModelSpec::llama3_1b(),
            speculation_len: 4,
            acceptance_curve: AcceptanceCurve::Constant(0.8),
        },
        assignment: assignment(DeviceMesh::sub_node(&two, 1, 0, 2).unwrap(), 1, 2, 1, 1),
    };
    let gen = exp.graph().find("actor_gen").unwrap();
    let spec = base.with_spec(gen, Some(draft)).unwrap();
    let report = exp.run(&spec, 2).unwrap();
    runs.push(("speculative", exp, report));

    let one = ClusterSpec::h100(1);
    let faults = FaultPlan::new(5)
        .crash(3, 9.0, 2.0)
        .slowdown(5, 2.0, 40.0, 2.5)
        .degrade_link(0, 5.0, 25.0, 2.0);
    let exp = traced_ppo(&one, 32, 9).with_fault_plan(faults);
    let sym = uniform(&exp, assignment(DeviceMesh::full(&one), 1, 8, 1, 8));
    let report = exp.run(&sym, 2).unwrap();
    assert!(
        report.run.faults.backoff_seconds > 0.0,
        "{:?}",
        report.run.faults
    );
    runs.push(("faulted", exp, report));

    let exp = traced_ppo(&one, 32, 17)
        .with_fault_plan(FaultPlan::new(23).crash(3, 12.0, 1.0e6))
        .with_replan_policy(ReplanPolicy::new().with_search_steps(300));
    let plan = exp.plan_heuristic().unwrap();
    let report = exp.run(&plan, 2).unwrap();
    assert!(report.run.replan.switches >= 1, "{:?}", report.run.replan);
    runs.push(("replanned", exp, report));

    let exp = traced_ppo(&one, 16, 13).with_async_offpolicy(1);
    let gen_mesh = DeviceMesh::sub_node(&one, 0, 0, 4).unwrap();
    let rest = DeviceMesh::sub_node(&one, 0, 4, 4).unwrap();
    let split = ExecutionPlan::new(
        exp.graph(),
        &one,
        exp.graph()
            .calls()
            .iter()
            .map(|c| {
                let mesh = if matches!(c.call_type, CallType::Generate { .. }) {
                    gen_mesh
                } else {
                    rest
                };
                assignment(mesh, 1, 4, 1, 4)
            })
            .collect(),
    )
    .unwrap();
    let report = exp.run(&split, 4).unwrap();
    assert!(report.run.async_stats.relaxed_calls > 0);
    runs.push(("async_s1", exp, report));
    runs
}

/// The profile of a run, built from spans recorded straight off it,
/// equals the profile of its exported event stream byte for byte on every
/// emitter; so do the phase overlaps of the recorded and replayed spans.
#[test]
fn profile_report_equals_the_profile_of_the_run_stream() {
    use real_core::real_obs::{phase_overlap, Phase};
    for (name, exp, report) in emitter_runs() {
        let (est, _) = exp.prepare();
        let direct = exp.profile_report(&report, &est, 10);
        let stream = exp.event_stream(&report);
        let mut replayed = ProfileReport::from_stream(&stream, 10);
        replayed.estimator_gap = exp.estimator_gap(&report, &est);
        assert_eq!(
            serde_json::to_string(&direct).unwrap(),
            serde_json::to_string(&replayed).unwrap(),
            "{name}"
        );
        let (recorded, replayed) = (exp.spans(&report), reconstruct_spans(&stream));
        for a in Phase::ALL {
            for b in Phase::ALL {
                assert_eq!(
                    phase_overlap(&recorded, a, b).to_bits(),
                    phase_overlap(&replayed, a, b).to_bits(),
                    "{name}: {a:?}/{b:?}"
                );
            }
        }
        // Each run reaches the emitter it stands for.
        let phase = |p: &str| direct.phases.iter().find(|s| s.phase == p).unwrap().seconds;
        match name {
            "speculative" => assert!(!direct.gen_breakdown.is_empty()),
            "faulted" => assert!(phase("retry-backoff") > 0.0),
            "async_s1" => assert!(stream.thread_names().any(|(_, _, t)| t.ends_with("+1"))),
            "replanned" => assert!(stream.thread_names().any(|(_, _, t)| t == "decisions")),
            _ => assert!(phase("realloc") > 0.0),
        }
    }
}
