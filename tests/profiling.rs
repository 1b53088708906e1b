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
