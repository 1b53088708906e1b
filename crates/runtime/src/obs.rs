//! Observability assembly for runtime-engine runs.
//!
//! * [`record_run`] — the one run recorder behind every Chrome export and
//!   every profile. It records a finished [`crate::RunReport`] into a
//!   caller-owned [`real_obs::Recorder`] (an [`real_obs::EventStream`] for
//!   an export, a [`real_obs::SpanSet`] for a profile, which keeps only
//!   the closed spans), every lane placed by a [`real_obs::Scope`]
//!   (the cluster scope for a solo run, [`build_event_stream`]; a tenant
//!   scope per tenant in `real-sched`'s export): per-GPU kernel spans with
//!   a `links/*` utilization counter per communication category; a master
//!   lane per function call with a span per answered request (category
//!   `call/gen`, `call/train` or `call/inf` after the call's type in the
//!   dataflow graph, so `real profile` can attribute phases) and its
//!   retry-backoff windows nested inside as `backoff` spans; flow arrows
//!   from each master `Request` to the worker `Response` completing it;
//!   and per-GPU `mem/*` counter tracks from the engine's memory model.
//! * [`run_metrics`] — a [`real_obs::MetricsRegistry`] with per-category
//!   busy-second counters (matching [`crate::RunReport::category_totals`]),
//!   run-level gauges, and per-call duration histograms.
//!
//! Faulted runs also get a fault lane per affected GPU or node link with
//! the injected windows as spans, abort instants on the call lanes, and
//! `runtime/fault_*` metrics; re-planned runs get a decision lane (an
//! instant per trigger evaluation, a span per committed switch prologue)
//! and `runtime/replan_*` metrics. Runs without faults or triggers emit
//! none of this, keeping their exports byte-identical to earlier builds.

use crate::config::EngineConfig;
use crate::replan::{ReplanOutcome, ReplanReason};
use crate::report::{FaultAbort, RequestFault, RunReport};
use real_cluster::ClusterSpec;
use real_dataflow::{DataflowGraph, ExecutionPlan};
use real_estimator::maxmem;
use real_obs::{EventStream, Lane, LaneId, MetricsRegistry, OverlapLayers, Recorder, Scope};
use real_sim::{Category, FaultEvent, TraceEvent};
use std::collections::BTreeMap;

/// Histogram bounds for per-call wall times (seconds): RLHF calls range
/// from sub-second inference shards to minutes-long generation.
pub const CALL_SECONDS_BOUNDS: &[f64] = &[
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
];

/// Assembles the unified event stream for a finished solo run: the run
/// recorded in the cluster scope (see [`record_run`]).
pub fn build_event_stream(
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    plan: &ExecutionPlan,
    config: &EngineConfig,
    report: &RunReport,
) -> EventStream {
    let mut stream = EventStream::default();
    let scope = Scope::cluster(cluster.gpus_per_node as usize);
    record_run(&mut stream, &scope, cluster, graph, plan, config, report);
    stream
}

/// Records one finished run into `stream`, its lanes placed by `scope` and
/// its timestamps moved onto the export's clock by it ([`Scope::ts`]).
///
/// `graph`, `plan` and `config` must be the ones the run executed with:
/// they supply each call's name and type, each call's mesh (flow targets
/// and memory accounting), the fault plan, and the ZeRO/distributed-
/// optimizer modes of the memory model. Flow ids continue from
/// [`Recorder::flows`], so runs recorded into one stream never share one.
/// The `links/*` and `mem/*` counters are computed only for a recorder
/// that keeps counters ([`Recorder::keeps_counters`]).
pub fn record_run(
    stream: &mut impl Recorder,
    scope: &Scope,
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    plan: &ExecutionPlan,
    config: &EngineConfig,
    report: &RunReport,
) {
    let trace = report.trace.events();
    record_kernels(stream, scope, trace, cluster.total_gpus());
    if stream.keeps_counters() {
        record_link_counters(stream, scope, trace);
    }
    let calls = record_calls(stream, scope, graph, plan, report);
    if let Some(fault_plan) = config.fault_plan.as_ref().filter(|p| !p.is_empty()) {
        record_faults(stream, scope, &fault_plan.events);
        for f in &report.faults.events {
            if let Some(call) = graph.find(&f.call_name) {
                let name = match f.kind {
                    FaultAbort::Timeout => format!("timeout#{}", f.attempt),
                    FaultAbort::Crash { gpu } => format!("crash@gpu{gpu}#{}", f.attempt),
                };
                stream.instant(calls[call.0], &name, "fault", scope.ts(f.at));
            }
        }
    }
    record_replans(stream, scope, report);
    if stream.keeps_counters() {
        record_memory(stream, scope, cluster, graph, plan, config, report);
    }
}

/// GPU kernel lanes (named on first use), a span per kernel.
fn record_kernels(stream: &mut impl Recorder, scope: &Scope, trace: &[TraceEvent], gpus: u32) {
    let mut lanes: Vec<Option<LaneId>> = vec![None; gpus as usize];
    for e in trace {
        let gpu = e.gpu as usize;
        let lane = *lanes[gpu].get_or_insert_with(|| scope.name(stream, Lane::Gpu(gpu)));
        let (start, end) = (scope.ts(e.start), scope.ts(e.end));
        stream.span(lane, e.label.as_str(), e.category.name(), start, end);
    }
}

/// Link-utilization counters from the kernel trace: for each
/// communication category, a counter track sampling how many links are
/// simultaneously busy at every busy-interval edge.
fn record_link_counters(stream: &mut impl Recorder, scope: &Scope, trace: &[TraceEvent]) {
    let comm =
        |c: &Category| !matches!(c, Category::Compute | Category::Launch | Category::Realloc);
    for cat in Category::ALL.into_iter().filter(comm) {
        let mut edges: Vec<(f64, i64)> = Vec::new();
        for e in trace.iter().filter(|e| e.category == cat) {
            edges.push((e.start, 1));
            edges.push((e.end, -1));
        }
        if edges.is_empty() {
            continue;
        }
        edges.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite times")
                .then(a.1.cmp(&b.1))
        });
        let mut active: i64 = 0;
        let track = format!("links/{cat}");
        for (ts, delta) in edges {
            active += delta;
            stream.counter(scope.counter_pid(0), &track, scope.ts(ts), active as f64);
        }
    }
}

/// Per-GPU memory in use: the static (optimizer-state) floor plus each
/// running call's active bytes, sampled at every call boundary.
fn record_memory(
    stream: &mut impl Recorder,
    scope: &Scope,
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    plan: &ExecutionPlan,
    config: &EngineConfig,
    report: &RunReport,
) {
    let gpn = cluster.gpus_per_node as usize;
    let log = &report.master_log;
    let zero3 = &config.zero3_models;
    let profile = maxmem::mem_profile(cluster, graph, plan, zero3, &config.dist_optim_models);
    let mut edges: Vec<Vec<(f64, f64)>> = vec![Vec::new(); cluster.total_gpus() as usize];
    for req in &log.requests {
        let Some(resp) = log.response(req.call, req.iter) else {
            continue;
        };
        let active = profile.call_active[req.call.0] as f64;
        for gpu in plan.assignment(req.call).mesh.gpus() {
            edges[gpu.0 as usize].push((req.dispatch_time, active));
            edges[gpu.0 as usize].push((resp.completed_at, -active));
        }
    }
    for (g, mut ev) in edges.into_iter().enumerate() {
        let floor = profile.static_bytes[g] as f64;
        if ev.is_empty() && floor == 0.0 {
            continue;
        }
        // Releases before acquisitions at equal timestamps, so back-to-back
        // calls do not produce a spurious double-occupancy sample.
        ev.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("finite times")
                .then(a.1.partial_cmp(&b.1).expect("finite deltas"))
        });
        let pid = scope.counter_pid(g / gpn);
        let track = format!("mem/node{}/gpu{}", g / gpn, g % gpn);
        let mut level = floor;
        stream.counter(pid, &track, scope.ts(0.0), level);
        for (ts, delta) in ev {
            level += delta;
            stream.counter(pid, &track, scope.ts(ts), level);
        }
    }
}

/// One master lane per function call (calls overlap in time, so one lane
/// could not keep begin/end nesting balanced), a span per answered request
/// with its backoff windows nested inside, and a flow arrow from each
/// dispatch to the lane of the first GPU executing it. An async run
/// dispatches a relaxed call before the call's previous request ends; such
/// a span goes to an overflow layer of its call's lane ([`OverlapLayers`]).
/// Returns the first layer's lanes.
fn record_calls(
    stream: &mut impl Recorder,
    scope: &Scope,
    graph: &DataflowGraph,
    plan: &ExecutionPlan,
    report: &RunReport,
) -> Vec<LaneId> {
    let log = &report.master_log;
    let lanes: Vec<LaneId> = graph
        .iter()
        .map(|(id, def)| scope.name(stream, Lane::Call(id.0, 0, &def.call_name)))
        .collect();
    let mut layers = vec![OverlapLayers::default(); lanes.len()];

    // Retry backoff windows, grouped per (call, iter). Attempts are
    // sequential, so the windows of one request never overlap.
    let mut backoffs: BTreeMap<(usize, usize), Vec<&RequestFault>> = BTreeMap::new();
    for f in report.faults.events.iter().filter(|f| f.backoff_secs > 0.0) {
        if let Some(call) = graph.find(&f.call_name) {
            backoffs.entry((call.0, f.iter)).or_default().push(f);
        }
    }

    for req in &log.requests {
        let Some(resp) = log.response(req.call, req.iter) else {
            continue;
        };
        let lane = match layers[req.call.0].place(req.dispatch_time, resp.completed_at) {
            0 => lanes[req.call.0],
            layer => scope.name(stream, Lane::Call(req.call.0, layer, &req.handle)),
        };
        let category = format!("call/{}", graph.call(req.call).call_type.label());
        let name = format!("{}#{}", req.handle, req.iter);
        let (dispatched, completed) = (scope.ts(req.dispatch_time), scope.ts(resp.completed_at));
        stream.begin(lane, &name, &category, dispatched);
        for f in backoffs.get(&(req.call.0, req.iter)).into_iter().flatten() {
            stream.span(
                lane,
                &format!("backoff#{}", f.attempt),
                "backoff",
                scope.ts(f.at),
                scope.ts((f.at + f.backoff_secs).min(resp.completed_at)),
            );
        }
        stream.end(lane, completed);
        let first = plan.assignment(req.call).mesh.gpus().next();
        let dst = scope.lane(Lane::Gpu(first.expect("non-empty mesh").0 as usize));
        let id = stream.flows();
        let name = format!("req:{}", req.handle);
        stream.flow_start(id, &name, lane, dispatched);
        stream.flow_end(id, &name, dst, completed);
    }
    lanes
}

/// Injected windows as spans on the fault lanes. Random plans may schedule
/// overlapping windows on one GPU; spans on a lane must keep monotone
/// timestamps, so overlapping windows are layered onto overflow lanes
/// ([`OverlapLayers`], by start time).
fn record_faults(stream: &mut impl Recorder, scope: &Scope, events: &[FaultEvent]) {
    // Per target (is-link, GPU or node index): windows as (start, end, name).
    type Window = (f64, f64, String);
    let mut windows: BTreeMap<(bool, usize), Vec<Window>> = BTreeMap::new();
    for ev in events {
        let (target, name, start, end) = match *ev {
            FaultEvent::Slowdown {
                gpu,
                start,
                end,
                factor,
            } => (
                (false, gpu as usize),
                format!("slowdown x{factor:.1}"),
                start,
                end,
            ),
            FaultEvent::Crash {
                gpu,
                at,
                restart_after,
            } => (
                (false, gpu as usize),
                "crash+restart".to_string(),
                at,
                at + restart_after,
            ),
            FaultEvent::LinkDegrade {
                node,
                start,
                end,
                factor,
            } => (
                (true, node as usize),
                format!("link x{factor:.1}"),
                start,
                end,
            ),
        };
        windows.entry(target).or_default().push((start, end, name));
    }
    for ((link, index), mut spans) in windows {
        spans.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mut layers = OverlapLayers::default();
        for (start, end, name) in spans {
            let layer = layers.place(start, end);
            let lane = if link {
                Lane::LinkFault(index, layer)
            } else {
                Lane::GpuFault(index, layer)
            };
            let lane = scope.name(stream, lane);
            stream.span(lane, &name, "fault", scope.ts(start), scope.ts(end));
        }
    }
}

/// The re-plan decision lane: one instant per trigger evaluation, plus a
/// span over each committed switch's reallocation prologue.
fn record_replans(stream: &mut impl Recorder, scope: &Scope, report: &RunReport) {
    if report.replan.events.is_empty() {
        return;
    }
    let lane = scope.name(stream, Lane::Replan);
    for ev in &report.replan.events {
        let reason = match ev.reason {
            ReplanReason::DeadWorker { gpu } => format!("dead-worker@gpu{gpu}"),
            ReplanReason::Straggler { timeouts } => format!("straggler({timeouts} timeouts)"),
            ReplanReason::DegradedRate { rate } => {
                format!("degraded-rate({:.0}%)", rate * 100.0)
            }
            ReplanReason::FreedCapacity { gpus } => format!("freed-capacity({gpus} gpus)"),
        };
        let outcome = match &ev.outcome {
            ReplanOutcome::Switched {
                base_time,
                target_time,
                switch_secs,
                ..
            } => {
                if *switch_secs > 0.0 {
                    stream.span(
                        lane,
                        "switch prologue",
                        "replan",
                        scope.ts(ev.at),
                        scope.ts(ev.at + switch_secs),
                    );
                }
                format!("switched x{:.2}", base_time / target_time)
            }
            ReplanOutcome::GateRejected { .. } => "gate-rejected".to_string(),
            ReplanOutcome::SwitchFaulted { gpu, .. } => format!("switch-faulted@gpu{gpu}"),
            ReplanOutcome::NoSurvivingPlan => "no-surviving-plan".to_string(),
        };
        stream.instant(
            lane,
            &format!("{reason}: {outcome}"),
            "replan",
            scope.ts(ev.at),
        );
    }
}

/// Builds the runtime metrics registry for a finished run.
///
/// The `runtime/category_seconds` counters equal
/// [`RunReport::category_totals`] exactly (they are copied, not re-derived),
/// so downstream consumers can cross-check the two surfaces.
pub fn run_metrics(cluster: &ClusterSpec, report: &RunReport) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    for (cat, secs) in &report.category_totals {
        m.counter_add(
            "runtime/category_seconds",
            &[("category", &cat.to_string())],
            *secs,
        );
    }
    m.gauge_set("runtime/total_time_seconds", &[], report.total_time);
    m.gauge_set("runtime/iter_time_seconds", &[], report.iter_time);
    m.gauge_set("runtime/idle_gpu_seconds", &[], report.idle_total);
    m.gauge_set("runtime/mem_peak_bytes", &[], report.mem_peak as f64);
    m.gauge_set("runtime/static_utilization", &[], report.static_utilization);
    m.gauge_set(
        "runtime/busy_fraction",
        &[],
        report.busy_fraction(cluster.total_gpus() as usize),
    );
    m.counter_add("runtime/iterations", &[], report.iterations as f64);
    m.counter_add(
        "runtime/requests",
        &[],
        report.master_log.requests.len() as f64,
    );
    m.counter_add(
        "runtime/responses",
        &[],
        report.master_log.responses.len() as f64,
    );
    m.counter_add(
        "runtime/trace_events",
        &[],
        report.trace.events().len() as f64,
    );
    m.counter_add(
        "runtime/trace_dropped_events",
        &[],
        report.trace.dropped() as f64,
    );
    for t in &report.timings {
        m.histogram_observe(
            "runtime/call_seconds",
            &[("call", &t.call_name)],
            CALL_SECONDS_BOUNDS,
            t.duration(),
        );
    }
    let f = &report.faults;
    if !f.is_empty() {
        m.counter_add("runtime/fault_injected", &[], f.injected as f64);
        m.counter_add("runtime/fault_dispatches", &[], f.dispatches as f64);
        m.counter_add("runtime/fault_retries", &[], f.retries as f64);
        m.counter_add("runtime/fault_timeouts", &[], f.timeouts as f64);
        m.counter_add("runtime/fault_crashes", &[], f.crashes as f64);
        m.counter_add(
            "runtime/fault_requests_retried",
            &[],
            f.requests_retried as f64,
        );
        m.counter_add(
            "runtime/fault_requests_recovered",
            &[],
            f.requests_recovered as f64,
        );
        m.counter_add(
            "runtime/fault_requests_degraded",
            &[],
            f.requests_degraded as f64,
        );
        m.gauge_set("runtime/fault_lost_gpu_seconds", &[], f.lost_gpu_seconds);
        m.gauge_set("runtime/fault_backoff_seconds", &[], f.backoff_seconds);
    }
    let r = &report.replan;
    if !r.is_empty() {
        m.counter_add("runtime/replan_evaluations", &[], r.evaluations as f64);
        m.counter_add("runtime/replan_switches", &[], r.switches as f64);
        m.counter_add(
            "runtime/replan_gate_rejections",
            &[],
            r.gate_rejections as f64,
        );
        m.counter_add(
            "runtime/replan_aborted_switches",
            &[],
            r.aborted_switches as f64,
        );
        m.counter_add("runtime/replan_no_plan", &[], r.no_plan as f64);
        m.gauge_set("runtime/replan_switch_seconds", &[], r.switch_seconds);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, RuntimeEngine};
    use real_cluster::DeviceMesh;
    use real_dataflow::{algo, CallAssignment};
    use real_model::{ModelSpec, ParallelStrategy};
    use real_obs::{MetricValue, StreamEvent};

    fn fault_pid() -> u32 {
        Scope::cluster(8).lane(Lane::GpuFault(0, 0)).pid
    }

    fn replan_pid() -> u32 {
        Scope::cluster(8).lane(Lane::Replan).pid
    }

    fn run() -> (
        ClusterSpec,
        DataflowGraph,
        ExecutionPlan,
        EngineConfig,
        RunReport,
    ) {
        let cluster = ClusterSpec::h100(1);
        let actor = ModelSpec::llama3_7b();
        let graph = algo::ppo(&actor, &actor.critic(), &algo::RlhfConfig::instruct_gpt(64));
        let a = CallAssignment::new(
            DeviceMesh::full(&cluster),
            ParallelStrategy::new(1, 8, 1, 8).unwrap(),
        )
        .unwrap();
        let plan = ExecutionPlan::new(&graph, &cluster, vec![a; graph.n_calls()]).unwrap();
        let config = EngineConfig::deterministic().with_trace(4096);
        let engine = RuntimeEngine::new(cluster.clone(), graph.clone(), config.clone());
        let report = engine.run(&plan, 2).unwrap();
        (cluster, graph, plan, config, report)
    }

    #[test]
    fn stream_has_spans_flows_and_memory_tracks() {
        let (cluster, graph, plan, config, report) = run();
        let stream = build_event_stream(&cluster, &graph, &plan, &config, &report);
        stream.check_invariants().expect("balanced stream");

        // One call span per dispatched request, on the master process.
        let call_begins = stream
            .events()
            .iter()
            .filter(|e| {
                matches!(e,
                StreamEvent::Begin { lane, category, .. }
                    if stream.lane(*lane).pid == u32::MAX && stream.str(*category).starts_with("call/"))
            })
            .count();
        assert_eq!(call_begins, report.master_log.requests.len());

        // Flow arrows pair up and leave from the master lanes.
        let starts = stream
            .events()
            .iter()
            .filter(|e| matches!(e, StreamEvent::FlowStart { lane, .. } if stream.lane(*lane).pid == u32::MAX))
            .count();
        let ends = stream
            .events()
            .iter()
            .filter(|e| matches!(e, StreamEvent::FlowEnd { lane, .. } if stream.lane(*lane).pid != u32::MAX))
            .count();
        assert_eq!(starts, report.master_log.requests.len());
        assert_eq!(ends, starts);

        // Per-GPU memory tracks exist; in-flight reservations cover at least
        // the checker's peak (static + the worst single call's active bytes).
        let mem_samples: Vec<f64> = stream
            .events()
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Counter { track, value, .. }
                    if stream.track(*track).1.starts_with("mem/") =>
                {
                    Some(*value)
                }
                _ => None,
            })
            .collect();
        assert!(!mem_samples.is_empty());
        let peak = mem_samples.iter().cloned().fold(0.0, f64::max);
        assert!(
            peak >= report.mem_peak as f64 * 0.999,
            "peak {peak} < {}",
            report.mem_peak
        );

        // Master lanes are named after the calls.
        assert!(stream
            .thread_names()
            .any(|(pid, _, name)| pid == u32::MAX && name == "actor_gen"));
    }

    #[test]
    fn stream_stores_each_string_once() {
        let (cluster, graph, plan, config, report) = run();
        let stream = build_event_stream(&cluster, &graph, &plan, &config, &report);
        // Thousands of kernel, call and counter events share a few dozen
        // names, categories and tracks.
        assert!(stream.events().len() > 5_000, "{}", stream.events().len());
        assert!(stream.symbols() < 100, "{}", stream.symbols());
    }

    #[test]
    fn faulted_run_surfaces_lanes_instants_and_metrics() {
        let (cluster, graph, plan, config, base) = run();
        // Crash a worker mid-generation so at least one abort is recorded.
        let gen = base
            .timings
            .iter()
            .find(|t| t.call_name == "actor_gen" && t.iter == 0)
            .unwrap();
        let fault_plan = real_sim::FaultPlan::new(9)
            .crash(3, (gen.start + gen.end) / 2.0, 2.0)
            .slowdown(1, 0.0, 5.0, 2.0)
            .degrade_link(0, 0.0, 5.0, 3.0);
        let config = EngineConfig {
            fault_plan: Some(fault_plan),
            ..config
        };
        let engine = RuntimeEngine::new(cluster.clone(), graph.clone(), config.clone());
        let report = engine.run(&plan, 2).unwrap();
        assert!(report.faults.crashes >= 1);

        let stream = build_event_stream(&cluster, &graph, &plan, &config, &report);
        stream.check_invariants().expect("balanced stream");
        // Fault process lanes are named and carry the three window spans.
        assert!(stream
            .thread_names()
            .any(|(pid, _, name)| pid == fault_pid() && name == "gpu3"));
        assert!(stream
            .thread_names()
            .any(|(pid, _, name)| pid == fault_pid() && name == "node0-link"));
        let fault_spans = stream
            .events()
            .iter()
            .filter(|e| {
                matches!(e,
                    StreamEvent::Begin { lane, category, .. }
                        if stream.lane(*lane).pid == fault_pid() && stream.str(*category) == "fault")
            })
            .count();
        assert_eq!(fault_spans, 3);
        // Abort instants land on the master's call lanes.
        assert!(stream.events().iter().any(|e| matches!(e,
            StreamEvent::Instant { lane, category, .. }
                if stream.lane(*lane).pid == u32::MAX && stream.str(*category) == "fault")));

        let m = run_metrics(&cluster, &report);
        assert_eq!(m.get("runtime/fault_injected", &[]).unwrap().scalar(), 3.0);
        assert!(m.get("runtime/fault_crashes", &[]).unwrap().scalar() >= 1.0);
        assert!(
            m.get("runtime/fault_lost_gpu_seconds", &[])
                .unwrap()
                .scalar()
                > 0.0
        );
    }

    #[test]
    fn fault_free_run_emits_no_fault_surface() {
        let (cluster, graph, plan, config, report) = run();
        assert!(report.faults.is_empty());
        assert!(report.replan.is_empty());
        let stream = build_event_stream(&cluster, &graph, &plan, &config, &report);
        assert!(!stream
            .events()
            .iter()
            .any(|e| matches!(e, StreamEvent::Begin { lane, .. } if stream.lane(*lane).pid == fault_pid())));
        assert!(!stream
            .events()
            .iter()
            .any(|e| matches!(e, StreamEvent::Instant { lane, .. } if stream.lane(*lane).pid == replan_pid())));
        let m = run_metrics(&cluster, &report);
        assert!(m.get("runtime/fault_injected", &[]).is_none());
        assert!(m.get("runtime/replan_evaluations", &[]).is_none());
    }

    #[test]
    fn replanned_run_surfaces_decision_lane_and_metrics() {
        let (cluster, graph, plan, config, base) = run();
        let gen = base
            .timings
            .iter()
            .find(|t| t.call_name == "actor_gen" && t.iter == 0)
            .unwrap();
        // A permanent crash mid-generation forces a dead-worker re-plan.
        let config = EngineConfig {
            fault_plan: Some(real_sim::FaultPlan::new(9).crash(
                3,
                (gen.start + gen.end) / 2.0,
                1.0e6,
            )),
            ..config
        };
        let actor = ModelSpec::llama3_7b();
        let mut profiler = real_profiler::Profiler::new(
            cluster.clone(),
            real_profiler::ProfileConfig::quick(),
            21,
        );
        let profiles = vec![profiler.profile(&actor), profiler.profile(&actor.critic())];
        let est = real_estimator::Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
        let policy = crate::replan::ReplanPolicy::new().with_search_steps(300);
        let engine = RuntimeEngine::new(cluster.clone(), graph.clone(), config.clone());
        let report = engine.run_replan(&plan, 2, &policy, &est).unwrap();
        assert!(report.replan.switches >= 1, "{:?}", report.replan);

        let stream = build_event_stream(&cluster, &graph, &plan, &config, &report);
        stream.check_invariants().expect("balanced stream");
        assert!(stream
            .thread_names()
            .any(|(pid, _, name)| pid == replan_pid() && name == "decisions"));
        let decisions = stream
            .events()
            .iter()
            .filter(|e| {
                matches!(e,
                    StreamEvent::Instant { lane, category, .. }
                        if stream.lane(*lane).pid == replan_pid() && stream.str(*category) == "replan")
            })
            .count();
        assert_eq!(decisions, report.replan.events.len());

        let m = run_metrics(&cluster, &report);
        assert!(m.get("runtime/replan_evaluations", &[]).unwrap().scalar() >= 1.0);
        assert_eq!(
            m.get("runtime/replan_switches", &[]).unwrap().scalar(),
            report.replan.switches as f64
        );
    }

    #[test]
    fn metrics_match_report_category_totals() {
        let (cluster, _, _, _, report) = run();
        let m = run_metrics(&cluster, &report);
        for (cat, secs) in &report.category_totals {
            let got = m
                .get(
                    "runtime/category_seconds",
                    &[("category", &cat.to_string())],
                )
                .expect("category counter present")
                .scalar();
            assert!(
                (got - secs).abs() <= 1e-9 * secs.abs().max(1.0),
                "{cat}: {got} vs {secs}"
            );
        }
        assert_eq!(m.get("runtime/requests", &[]).unwrap().scalar(), 12.0);
        match m
            .get("runtime/call_seconds", &[("call", "actor_gen")])
            .unwrap()
        {
            MetricValue::Histogram(h) => assert_eq!(h.count(), 2),
            other => panic!("expected histogram, got {}", other.kind()),
        }
    }
}
