//! The trace emitters' behaviour contract: what every Chrome export
//! contains, pinned in a committed JSON fixture.
//!
//! Each case builds one export — `Experiment::event_stream` on a plain,
//! a speculative, a faulted (crash, two overlapping slowdowns on one GPU,
//! a link degradation), a re-planned (dead worker) and an async (s = 1)
//! run; `sched_event_stream` on two DPO tenants, one of them faulted; and
//! `serve_event_stream` on a workload with one preemption — and records:
//!
//! - the FNV digest and byte length of the Chrome string;
//! - every `process/thread` lane name;
//! - per `(process, category)`, the count and digest of the spans
//!   `real_obs::critpath::reconstruct_spans` finds, in `(start, end, name)`
//!   order with the lane's thread name and nesting depth;
//! - per `(process, kind)`, the counts of instants, counters and flow
//!   events;
//! - the stream's dropped-event count.
//!
//! Every export also re-imports through `chrome::from_chrome_value`,
//! which rejects malformed traces.
//!
//! Regenerate deliberately with
//! `BLESS=1 cargo test -p real-core --test trace_contract`.

use real_core::prelude::*;
use real_core::real_obs::{chrome, critpath, StreamEvent};
use real_sched::{SchedConfig, Scheduler};
use real_serve::{run_sched, ArrivalSpec, TemplateSpec, WorkloadSpec};
use serde_json::Value;
use std::collections::BTreeMap;

mod contract;

use contract::{assert_matches_fixture, obj, Fnv};

/// The contract record of a well-formed stream: its export must re-import
/// through the validating importer as the same number of events.
fn stream_json(stream: &EventStream) -> Value {
    let json = chrome::to_chrome_string(stream);
    let back = chrome::from_chrome_value(&serde_json::from_str(&json).unwrap())
        .unwrap_or_else(|e| panic!("export does not re-import: {e}"));
    assert_eq!(back.events().len(), stream.events().len());
    let mut digest = Fnv::new();
    digest.feed(json.as_bytes());

    let processes: BTreeMap<u32, &str> = stream.process_names().collect();
    let process = |pid: u32| {
        processes
            .get(&pid)
            .map_or_else(|| format!("pid{pid}"), |p| p.to_string())
    };
    let threads: BTreeMap<(u32, u32), &str> = stream
        .thread_names()
        .map(|(pid, tid, name)| ((pid, tid), name))
        .collect();
    let mut lanes: Vec<String> = stream
        .thread_names()
        .map(|(pid, _, name)| format!("{}/{name}", process(pid)))
        .collect();
    lanes.sort();

    let set = critpath::reconstruct_spans(stream);
    let mut spans: Vec<(&critpath::Span, &str)> = set
        .spans()
        .iter()
        .map(|s| {
            let lane = set.lane(s.lane);
            let thread = threads.get(&(lane.pid, lane.tid)).copied().unwrap_or("");
            (s, thread)
        })
        .collect();
    spans.sort_by(|(a, ta), (b, tb)| {
        a.start
            .total_cmp(&b.start)
            .then(a.end.total_cmp(&b.end))
            .then(set.str(a.name).cmp(set.str(b.name)))
            .then(ta.cmp(tb))
            .then(a.depth.cmp(&b.depth))
    });
    let mut rows: BTreeMap<String, (u64, Fnv)> = BTreeMap::new();
    for (s, thread) in &spans {
        let (count, h) = rows
            .entry(format!(
                "{} {}",
                process(set.lane(s.lane).pid),
                set.str(s.category)
            ))
            .or_insert_with(|| (0, Fnv::new()));
        *count += 1;
        h.feed(thread.as_bytes());
        h.feed(set.str(s.name).as_bytes());
        h.feed(&s.start.to_bits().to_le_bytes());
        h.feed(&s.end.to_bits().to_le_bytes());
        h.feed(&s.depth.to_le_bytes());
    }
    let span_rows = rows
        .into_iter()
        .map(|(key, (count, h))| (key, Value::String(format!("{count} {}", h.hex()))))
        .collect();

    let mut marks: BTreeMap<String, u64> = BTreeMap::new();
    for e in stream.events() {
        let (pid, kind) = match *e {
            StreamEvent::Instant { lane, .. } => (stream.lane(lane).pid, "instant"),
            StreamEvent::Counter { track, .. } => (stream.track(track).0, "counter"),
            StreamEvent::FlowStart { lane, .. } | StreamEvent::FlowEnd { lane, .. } => {
                (stream.lane(lane).pid, "flow")
            }
            StreamEvent::Begin { .. } | StreamEvent::End { .. } => continue,
        };
        *marks.entry(format!("{} {kind}", process(pid))).or_insert(0) += 1;
    }

    obj(vec![
        ("chrome_digest", Value::String(digest.hex())),
        ("chrome_bytes", Value::from(json.len() as u64)),
        ("dropped", Value::from(stream.dropped())),
        (
            "lanes",
            Value::Array(lanes.into_iter().map(Value::String).collect()),
        ),
        ("spans", Value::Object(span_rows)),
        (
            "marks",
            Value::Object(
                marks
                    .into_iter()
                    .map(|(k, n)| (k, Value::from(n)))
                    .collect(),
            ),
        ),
    ])
}

/// Jittered engine config with tracing on.
fn traced(seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        trace_capacity: 1 << 16,
        ..EngineConfig::default()
    }
}

fn assignment(mesh: DeviceMesh, dp: u32, tp: u32, pp: u32, mbs: u32) -> CallAssignment {
    CallAssignment::new(mesh, ParallelStrategy::new(dp, tp, pp, mbs).unwrap()).unwrap()
}

fn ppo(cluster: &ClusterSpec, batch: u64, seed: u64) -> Experiment {
    Experiment::ppo(
        cluster.clone(),
        ModelSpec::llama3_7b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(batch),
    )
    .with_quick_profile()
    .with_seed(seed)
    .with_engine_config(traced(seed))
}

fn uniform(exp: &Experiment, a: CallAssignment) -> ExecutionPlan {
    ExecutionPlan::new(exp.graph(), exp.cluster(), vec![a; exp.graph().n_calls()]).unwrap()
}

fn traced_run(exp: &Experiment, plan: &ExecutionPlan, iterations: usize) -> Value {
    let report = exp.run(plan, iterations).unwrap();
    stream_json(&exp.event_stream(&report))
}

fn run_cases() -> Vec<(&'static str, Value)> {
    let mut cases = Vec::new();

    // Actor training moves to node 0 with another shape: reallocations and
    // transfers on every iteration.
    let two = ClusterSpec::h100(2);
    let exp = ppo(&two, 64, 5);
    let mut plan = uniform(&exp, assignment(DeviceMesh::full(&two), 2, 8, 1, 4));
    let train = exp.graph().find("actor_train").unwrap();
    plan = plan
        .with_assignment(
            train,
            assignment(DeviceMesh::whole_nodes(&two, 0, 1).unwrap(), 1, 4, 2, 8),
        )
        .unwrap();
    cases.push(("run_plain", traced_run(&exp, &plan, 2)));

    // Generation speculates with a 1B draft on two GPUs of node 1.
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
    cases.push(("run_speculative", traced_run(&exp, &spec, 2)));

    // A crash, two overlapping slowdowns on GPU 5 and a degraded link.
    let one = ClusterSpec::h100(1);
    let faults = FaultPlan::new(5)
        .crash(3, 9.0, 2.0)
        .slowdown(5, 2.0, 40.0, 2.5)
        .slowdown(5, 10.0, 30.0, 1.5)
        .degrade_link(0, 5.0, 25.0, 2.0);
    let exp = ppo(&one, 64, 9).with_fault_plan(faults);
    let sym = uniform(&exp, assignment(DeviceMesh::full(&one), 1, 8, 1, 8));
    let report = exp.run(&sym, 2).unwrap();
    assert!(report.run.faults.crashes >= 1, "{:?}", report.run.faults);
    assert!(report.run.faults.backoff_seconds > 0.0);
    cases.push((
        "run_crash_slowdowns_link",
        stream_json(&exp.event_stream(&report)),
    ));

    // A permanent crash mid-run forces a dead-worker re-plan.
    let exp = ppo(&one, 32, 17)
        .with_fault_plan(FaultPlan::new(23).crash(3, 12.0, 1.0e6))
        .with_replan_policy(ReplanPolicy::new().with_search_steps(300));
    let plan = exp.plan_heuristic().unwrap();
    let report = exp.run(&plan, 2).unwrap();
    assert!(
        matches!(
            report.run.replan.events.first().map(|e| &e.reason),
            Some(ReplanReason::DeadWorker { .. })
        ),
        "{:?}",
        report.run.replan
    );
    cases.push((
        "run_replan_dead_worker",
        stream_json(&exp.event_stream(&report)),
    ));

    // Generation on node 0's first half, everything else on the second.
    let exp = ppo(&one, 16, 13).with_async_offpolicy(1);
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
    // Iteration i+1's generation is dispatched before iteration i's ends;
    // its span goes to an overflow layer of the call's master lane, so the
    // stream keeps its invariants and re-imports.
    let stream = exp.event_stream(&report);
    stream.check_invariants().unwrap();
    cases.push(("run_async_s1", stream_json(&stream)));
    cases
}

fn sched_case() -> (&'static str, Value) {
    let cluster = ClusterSpec::h100(2);
    let dpo = |name: &str, id: u64, batch: u64| {
        let exp = Experiment::dpo(
            cluster.clone(),
            ModelSpec::llama3_7b(),
            RlhfConfig::instruct_gpt(batch),
        )
        .with_quick_profile()
        .with_engine_config(EngineConfig {
            trace_capacity: 50_000,
            ..EngineConfig::default()
        });
        (name.to_string(), id, exp)
    };
    let (name, id, prod) = dpo("prod", 0, 64);
    let prod = Tenant::new(name, id, prod).with_priority(2.0);
    let (name, id, dev) = dpo("dev", 1, 32);
    let faults = FaultPlan::new(7)
        .crash(12, 3.0, 2.0)
        .slowdown(13, 0.0, 20.0, 2.0);
    let dev = Tenant::new(name, id, dev.with_fault_plan(faults));
    let tenants = vec![prod, dev];
    let scheduler = Scheduler::new(cluster).with_config(SchedConfig {
        refine_steps: 200,
        ..SchedConfig::default()
    });
    let outcome = run_sched(&scheduler, &tenants).unwrap();
    assert!(
        outcome.reports[1].faults.crashes >= 1,
        "{:?}",
        outcome.reports[1].faults
    );
    let stream = real_sched::obs::sched_event_stream(
        &tenants,
        &outcome.schedule,
        &outcome.reports,
        &outcome.admitted_secs,
    );
    ("sched_two_dpo_faulted", stream_json(&stream))
}

fn serve_case() -> (&'static str, Value) {
    let tenant = |name: &str, priority: f64, iterations: usize, batch: u64| TemplateSpec {
        tenant: real_sched::TenantSpec {
            name: name.into(),
            id: None,
            priority: Some(priority),
            algo: Some("dpo".into()),
            actor: Some("7b".into()),
            critic: None,
            batch: Some(batch),
            graph: None,
            iterations: Some(iterations),
            faults: None,
            elastic: None,
        },
        weight: None,
    };
    let spec = WorkloadSpec {
        nodes: 2,
        seed: Some(5),
        horizon_secs: Some(100_000.0),
        arrivals: ArrivalSpec::Trace {
            times_secs: vec![0.0, 5.0],
            templates: Some(vec![0, 1]),
        },
        templates: vec![tenant("lowpri", 0.1, 4, 64), tenant("highpri", 10.0, 1, 32)],
        admission: None,
    };
    let report = real_serve::serve(&spec, &real_sched::GraphSet::new()).unwrap();
    assert_eq!(report.preemptions, 1, "{report:?}");
    (
        "serve_one_preemption",
        stream_json(&real_serve::serve_event_stream(&report)),
    )
}

#[test]
fn trace_exports_match_the_contract_fixture() {
    let cases: Vec<(String, Value)> = run_cases()
        .into_iter()
        .chain([sched_case(), serve_case()])
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    assert_matches_fixture("trace_contract.json", "trace exports", cases);
}
