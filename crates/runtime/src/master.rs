//! The master worker: dependency resolution and request dispatch (§6).
//!
//! The real master worker runs asyncio coroutines, one per function call,
//! each awaiting its parents and then dispatching a socket request to the
//! model workers holding the call's mesh. On virtual time, that is a loop
//! over the unrolled call nodes in topological order: a node's dispatch
//! time is the max of its parents' completions plus the RPC latency, data
//! transfers and parameter reallocations run as broadcast events between
//! calls, and the model workers' FIFO queues are the GPU timelines.
//!
//! # Resilient dispatch
//!
//! With a [`real_sim::FaultPlan`] injected ([`EngineConfig::fault_plan`]),
//! every request goes through a retry loop instead of a bare execution:
//!
//! 1. wait for every participating worker to be up
//!    ([`real_sim::FaultClock::available_from`]),
//! 2. execute the attempt with fault windows stretching its events, under a
//!    deadline of [`EngineConfig::deadline_factor`] times the predicted
//!    cost (the §5 estimator's prediction when available, else the
//!    fault-free simulated duration from the same timeline state),
//! 3. on a crash or timeout, roll back the attempt (timelines, RNG, trace),
//!    charge the wasted interval as dead work, and re-dispatch after a
//!    bounded exponential backoff,
//! 4. after [`EngineConfig::max_retries`] failed attempts, run once in
//!    *degraded mode* — past the schedule's last crash, with checks
//!    disabled — so a run always completes.

use crate::config::EngineConfig;
use crate::driver::{run_solo, Replan};
use crate::replan::ReplanPolicy;
use crate::report::RunReport;
use real_cluster::ClusterSpec;
use real_dataflow::{DataflowGraph, ExecutionPlan};
use real_estimator::Estimator;
use std::fmt;

/// Errors from [`RuntimeEngine::run`] and the other runtime entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The plan exceeds device memory (the paper's red-cross markers in
    /// Fig. 7).
    OutOfMemory {
        /// Estimated peak bytes.
        peak: u64,
        /// Device capacity bytes.
        capacity: u64,
    },
    /// A run, tenant or session was asked for zero iterations.
    NoIterations,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::OutOfMemory { peak, capacity } => write!(
                f,
                "plan out of memory: peak {} exceeds capacity {}",
                real_util::units::fmt_bytes(*peak),
                real_util::units::fmt_bytes(*capacity)
            ),
            RunError::NoIterations => write!(f, "must run at least one iteration"),
        }
    }
}

impl std::error::Error for RunError {}

/// The runtime engine bound to one cluster and workflow.
#[derive(Debug, Clone)]
pub struct RuntimeEngine {
    cluster: ClusterSpec,
    graph: DataflowGraph,
    config: EngineConfig,
}

impl RuntimeEngine {
    /// Creates an engine.
    pub fn new(cluster: ClusterSpec, graph: DataflowGraph, config: EngineConfig) -> Self {
        Self {
            cluster,
            graph,
            config,
        }
    }

    /// The engine's workflow.
    pub fn graph(&self) -> &DataflowGraph {
        &self.graph
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Executes `plan` for `iterations` RLHF iterations on virtual time.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::OutOfMemory`] when the plan does not fit device
    /// memory (unless `skip_mem_check` is set), and
    /// [`RunError::NoIterations`] when `iterations == 0`.
    pub fn run(&self, plan: &ExecutionPlan, iterations: usize) -> Result<RunReport, RunError> {
        run_solo(self, plan, iterations, None, None)
    }

    /// Executes `plan` under the elastic re-planning loop: resilient
    /// dispatch exactly as in [`RuntimeEngine::run`], plus trigger rules
    /// over the live fault statistics that can switch the run to a freshly
    /// searched plan on the surviving GPUs.
    ///
    /// Three triggers feed the policy:
    ///
    /// - **dead worker** — a request whose participants stay unreachable
    ///   for [`ReplanPolicy::dead_after_secs`] re-plans instead of waiting
    ///   out the downtime,
    /// - **straggler** — an iteration accumulating
    ///   [`ReplanPolicy::straggler_requests`] deadline timeouts,
    /// - **degraded rate** — an iteration whose degraded-completion share
    ///   reaches [`ReplanPolicy::degraded_rate_threshold`].
    ///
    /// Each evaluation derives a [`real_cluster::ClusterHealth`] from the
    /// fault clock (dead workers excluded, stragglers tagged with their
    /// slowdown factor), warm-starts an MCMC re-search over the surviving
    /// meshes with the incumbent plan as the chain seed, and commits the
    /// candidate only if the cost/benefit gate passes: the estimated saving
    /// over the remaining iterations must exceed
    /// [`ReplanPolicy::min_benefit_ratio`] times the *measured* wall cost
    /// of the switch's reallocation prologue. The prologue runs under
    /// snapshot-rollback, so a switch hit by a crash (or rejected by the
    /// gate) leaves the run bit-exactly where it was.
    ///
    /// Without a fault plan this delegates to [`RuntimeEngine::run`]: the
    /// policy can never trigger and the report stays byte-identical.
    ///
    /// `est` must be the §5 estimator for this engine's cluster and graph;
    /// re-searches overlay it with the observed cluster health.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::OutOfMemory`] when the *initial* plan does not
    /// fit device memory (unless `skip_mem_check` is set), and
    /// [`RunError::NoIterations`] when `iterations == 0`. Candidate plans
    /// failing the memory check are rejected during evaluation instead.
    pub fn run_replan(
        &self,
        plan: &ExecutionPlan,
        iterations: usize,
        policy: &ReplanPolicy,
        est: &Estimator,
    ) -> Result<RunReport, RunError> {
        if self.config.fault_plan.is_none() {
            return self.run(plan, iterations);
        }
        run_solo(self, plan, iterations, None, Some(Replan { policy, est }))
    }
}

#[cfg(test)] // names the unit tests take via `super::*`
use crate::{replan::ReplanReason, report::FaultAbort};
#[cfg(test)]
use real_sim::Category;

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::DeviceMesh;
    use real_dataflow::{algo, CallAssignment};
    use real_model::{ModelSpec, ParallelStrategy};

    fn setup(nodes: u32, batch: u64) -> (ClusterSpec, DataflowGraph) {
        let cluster = ClusterSpec::h100(nodes);
        let actor = ModelSpec::llama3_7b();
        let graph = algo::ppo(
            &actor,
            &actor.critic(),
            &algo::RlhfConfig::instruct_gpt(batch),
        );
        (cluster, graph)
    }

    fn symmetric(
        cluster: &ClusterSpec,
        graph: &DataflowGraph,
        dp: u32,
        tp: u32,
        mbs: u32,
    ) -> ExecutionPlan {
        let a = CallAssignment::new(
            DeviceMesh::full(cluster),
            ParallelStrategy::new(dp, tp, 1, mbs).unwrap(),
        )
        .unwrap();
        ExecutionPlan::new(graph, cluster, vec![a; graph.n_calls()]).unwrap()
    }

    #[test]
    fn symmetric_run_produces_sane_report() {
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let engine = RuntimeEngine::new(cluster, graph, EngineConfig::deterministic());
        let report = engine.run(&plan, 2).unwrap();
        assert!(report.iter_time > 0.0);
        assert!(report.total_time >= report.iter_time);
        assert_eq!(report.timings.len(), 12); // 6 calls x 2 iters
                                              // Generation dominates the iteration (Fig. 1).
        let gen = report.call_mean("actor_gen").unwrap();
        for other in ["reward_inf", "ref_inf", "critic_inf", "critic_train"] {
            assert!(gen > report.call_mean(other).unwrap(), "{other}");
        }
    }

    #[test]
    fn oom_plan_is_rejected() {
        let (cluster, graph) = setup(1, 512);
        let plan = symmetric(&cluster, &graph, 8, 1, 1);
        let engine = RuntimeEngine::new(cluster, graph, EngineConfig::deterministic());
        let err = engine.run(&plan, 1).unwrap_err();
        assert!(matches!(err, RunError::OutOfMemory { .. }));
    }

    #[test]
    fn skip_mem_check_forces_execution() {
        let (cluster, graph) = setup(1, 512);
        let plan = symmetric(&cluster, &graph, 8, 1, 1);
        let cfg = EngineConfig {
            skip_mem_check: true,
            ..EngineConfig::deterministic()
        };
        let engine = RuntimeEngine::new(cluster, graph, cfg);
        assert!(engine.run(&plan, 1).is_ok());
    }

    #[test]
    fn determinism_per_seed() {
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let engine = RuntimeEngine::new(cluster.clone(), graph.clone(), EngineConfig::default());
        let a = engine.run(&plan, 2).unwrap();
        let b = engine.run(&plan, 2).unwrap();
        assert_eq!(a.iter_time, b.iter_time);
        assert_eq!(a.total_time, b.total_time);
    }

    #[test]
    fn asymmetric_plan_triggers_realloc_and_transfer() {
        let (cluster, graph) = setup(2, 64);
        let full = CallAssignment::new(
            DeviceMesh::full(&cluster),
            ParallelStrategy::new(2, 8, 1, 4).unwrap(),
        )
        .unwrap();
        let mut assignments = vec![full; graph.n_calls()];
        // Actor training on node 0 only with a different shape.
        let train = graph.find("actor_train").unwrap();
        assignments[train.0] = CallAssignment::new(
            DeviceMesh::whole_nodes(&cluster, 0, 1).unwrap(),
            ParallelStrategy::new(1, 4, 2, 8).unwrap(),
        )
        .unwrap();
        let plan = ExecutionPlan::new(&graph, &cluster, assignments).unwrap();
        let engine = RuntimeEngine::new(cluster, graph, EngineConfig::deterministic());
        let report = engine.run(&plan, 2).unwrap();
        let get = |c: Category| {
            report
                .category_totals
                .iter()
                .find(|(k, _)| *k == c)
                .unwrap()
                .1
        };
        assert!(get(Category::Realloc) > 0.0, "realloc time must be charged");
        assert!(
            get(Category::Transfer) > 0.0,
            "transfer time must be charged"
        );
        // The paper's Fig. 11 note: broadcasts take much less GPU time than
        // compute.
        assert!(get(Category::Realloc) < 0.2 * get(Category::Compute));
    }

    #[test]
    fn master_log_records_every_dispatch_and_completion() {
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let engine = RuntimeEngine::new(cluster, graph.clone(), EngineConfig::deterministic());
        let report = engine.run(&plan, 2).unwrap();
        let log = &report.master_log;
        assert_eq!(log.requests.len(), 12);
        assert_eq!(log.responses.len(), 12);
        for iter in 0..2 {
            for (id, def) in graph.iter() {
                let req = log.request(id, iter).expect("request logged");
                let resp = log.response(id, iter).expect("response logged");
                assert_eq!(req.handle, def.call_name);
                assert!(req.dispatch_time <= resp.completed_at);
                assert_eq!(req.worker_count, 8);
                // Requests carry locations, never payloads: actor_train has
                // five upstream inputs.
                if def.call_name == "actor_train" {
                    assert_eq!(req.data_locations.len(), 5);
                }
            }
        }
    }

    #[test]
    fn empty_fault_plan_reproduces_fault_free_run() {
        // Resilient dispatch with zero fault windows must produce the same
        // virtual timings as the plain path: the nominal pre-simulation
        // uses cloned state, windows never stretch, no attempt aborts.
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let base = RuntimeEngine::new(cluster.clone(), graph.clone(), EngineConfig::default())
            .run(&plan, 2)
            .unwrap();
        let cfg = EngineConfig::default().with_fault_plan(real_sim::FaultPlan::new(5));
        let faulted = RuntimeEngine::new(cluster, graph, cfg)
            .run(&plan, 2)
            .unwrap();
        assert_eq!(base.total_time, faulted.total_time);
        assert_eq!(base.iter_time, faulted.iter_time);
        assert_eq!(base.timings, faulted.timings);
        assert_eq!(base.category_totals, faulted.category_totals);
        assert_eq!(faulted.faults.retries, 0);
        assert_eq!(faulted.faults.injected, 0);
        // 12 requests dispatched exactly once each.
        assert_eq!(faulted.faults.dispatches, 12);
    }

    #[test]
    fn crashes_are_recovered_and_accounted() {
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        // Find when generation runs fault-free, then crash a worker in the
        // middle of it.
        let base = RuntimeEngine::new(cluster.clone(), graph.clone(), EngineConfig::default())
            .run(&plan, 2)
            .unwrap();
        let gen = base
            .timings
            .iter()
            .find(|t| t.call_name == "actor_gen" && t.iter == 0)
            .unwrap();
        let mid = (gen.start + gen.end) / 2.0;
        let fault_plan = real_sim::FaultPlan::new(5).crash(3, mid, 2.0);
        let cfg = EngineConfig::default().with_fault_plan(fault_plan);
        let report = RuntimeEngine::new(cluster, graph, cfg)
            .run(&plan, 2)
            .unwrap();
        let f = &report.faults;
        assert_eq!(f.injected, 1);
        assert!(f.crashes >= 1, "{f:?}");
        assert!(f.requests_recovered >= 1, "{f:?}");
        assert_eq!(f.requests_degraded, 0, "{f:?}");
        assert!(f.lost_gpu_seconds > 0.0);
        assert!(!f.events.is_empty());
        assert!(matches!(f.events[0].kind, FaultAbort::Crash { gpu: 3 }));
        // The run completed, later than the clean one.
        assert_eq!(report.timings.len(), 12);
        assert!(report.total_time > base.total_time);
    }

    fn spec_choice(
        cluster: &ClusterSpec,
        node: u32,
        alpha: f64,
        k: u32,
    ) -> real_dataflow::SpecChoice {
        real_dataflow::SpecChoice {
            config: real_model::SpecDecodeConfig {
                draft_model: ModelSpec::llama3_1b(),
                speculation_len: k,
                acceptance_curve: real_model::specdec::AcceptanceCurve::Constant(alpha),
            },
            assignment: CallAssignment::new(
                DeviceMesh::sub_node(cluster, node, 0, 2).unwrap(),
                ParallelStrategy::new(1, 2, 1, 1).unwrap(),
            )
            .unwrap(),
        }
    }

    /// All calls on node 0, the draft on two GPUs of node 1 — disjoint
    /// meshes, so a crash on the draft mesh can only reach the run through
    /// the speculative dispatch's participant set.
    fn speculative_plan(cluster: &ClusterSpec, graph: &DataflowGraph, alpha: f64) -> ExecutionPlan {
        let a = CallAssignment::new(
            DeviceMesh::whole_nodes(cluster, 0, 1).unwrap(),
            ParallelStrategy::new(1, 8, 1, 8).unwrap(),
        )
        .unwrap();
        let plan = ExecutionPlan::new(graph, cluster, vec![a; graph.n_calls()]).unwrap();
        let gen = graph.find("actor_gen").unwrap();
        plan.with_spec(gen, Some(spec_choice(cluster, 1, alpha, 4)))
            .unwrap()
    }

    fn trace_labels(report: &RunReport) -> Vec<&'static str> {
        report
            .trace
            .events()
            .iter()
            .map(|e| e.label.as_str())
            .collect()
    }

    #[test]
    fn speculative_run_emits_draft_and_verify_spans() {
        let (cluster, graph) = setup(2, 64);
        let plan = speculative_plan(&cluster, &graph, 0.8);
        let cfg = EngineConfig {
            trace_capacity: 1 << 16,
            ..EngineConfig::deterministic()
        };
        let engine = RuntimeEngine::new(cluster, graph, cfg);
        let report = engine.run(&plan, 1).unwrap();
        let labels = trace_labels(&report);
        for want in ["spec_draft_prefill", "spec_draft_decode", "spec_verify_fwd"] {
            assert!(labels.contains(&want), "missing {want} in {labels:?}");
        }
        assert!(
            !labels.contains(&"spec_fallback_decode"),
            "profitable speculation must not fall back"
        );
        // Draft work lands on the draft mesh (node 1), verify on the target.
        for e in report.trace.events() {
            match e.label.as_str() {
                "spec_draft_prefill" | "spec_draft_decode" => {
                    assert!((8..10).contains(&e.gpu), "draft span on gpu {}", e.gpu);
                }
                "spec_verify_fwd" => assert!(e.gpu < 8, "verify span on gpu {}", e.gpu),
                _ => {}
            }
        }
    }

    #[test]
    fn speculation_speeds_up_generation_at_high_acceptance() {
        let (cluster, graph) = setup(2, 64);
        let plain = {
            let a = CallAssignment::new(
                DeviceMesh::whole_nodes(&cluster, 0, 1).unwrap(),
                ParallelStrategy::new(1, 8, 1, 8).unwrap(),
            )
            .unwrap();
            ExecutionPlan::new(&graph, &cluster, vec![a; graph.n_calls()]).unwrap()
        };
        let spec = speculative_plan(&cluster, &graph, 0.8);
        let engine = RuntimeEngine::new(cluster, graph, EngineConfig::deterministic());
        let base = engine.run(&plain, 1).unwrap();
        let fast = engine.run(&spec, 1).unwrap();
        let base_gen = base.call_mean("actor_gen").unwrap();
        let fast_gen = fast.call_mean("actor_gen").unwrap();
        assert!(
            fast_gen < base_gen,
            "speculative generation {fast_gen} must beat plain {base_gen}"
        );
    }

    #[test]
    fn low_acceptance_speculation_falls_back_to_plain_decode() {
        let (cluster, graph) = setup(2, 64);
        let plan = speculative_plan(&cluster, &graph, 0.0);
        let cfg = EngineConfig {
            trace_capacity: 1 << 16,
            ..EngineConfig::deterministic()
        };
        let engine = RuntimeEngine::new(cluster, graph, cfg);
        let report = engine.run(&plan, 1).unwrap();
        let labels = trace_labels(&report);
        assert!(labels.contains(&"spec_fallback_decode"), "{labels:?}");
        for banned in ["spec_draft_prefill", "spec_draft_decode", "spec_verify_fwd"] {
            assert!(!labels.contains(&banned), "unprofitable spec ran {banned}");
        }
    }

    #[test]
    fn speculative_runs_replay_bit_identically_under_draft_mesh_fault() {
        let (cluster, graph) = setup(2, 64);
        let plan = speculative_plan(&cluster, &graph, 0.8);
        // Find when generation runs fault-free, then crash a draft-mesh GPU
        // (node 1) in the middle of it: only the speculative participant
        // set can see that crash, since every call executes on node 0.
        let base = RuntimeEngine::new(cluster.clone(), graph.clone(), EngineConfig::default())
            .run(&plan, 2)
            .unwrap();
        let gen = base
            .timings
            .iter()
            .find(|t| t.call_name == "actor_gen" && t.iter == 0)
            .unwrap();
        let mid = (gen.start + gen.end) / 2.0;
        let fault_plan = real_sim::FaultPlan::new(16).crash(8, mid, 2.0);
        let cfg = EngineConfig::default()
            .with_fault_plan(fault_plan)
            .with_trace(1 << 16);
        let engine = RuntimeEngine::new(cluster, graph, cfg);
        let a = engine.run(&plan, 2).unwrap();
        let b = engine.run(&plan, 2).unwrap();
        assert!(
            a.faults.crashes >= 1,
            "the draft-mesh crash must abort an attempt: {:?}",
            a.faults
        );
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.timings, b.timings);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.trace.events(), b.trace.events());
        // Recovery waited out the draft worker's downtime.
        assert!(a.total_time > base.total_time);
    }

    #[test]
    fn faulted_runs_replay_bit_identically() {
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let fault_plan = real_sim::FaultPlan::random(23, 8, 8, 200.0, 4.0);
        let cfg = EngineConfig::default()
            .with_fault_plan(fault_plan)
            .with_trace(4096);
        let engine = RuntimeEngine::new(cluster, graph, cfg);
        let a = engine.run(&plan, 2).unwrap();
        let b = engine.run(&plan, 2).unwrap();
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.timings, b.timings);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.trace.events(), b.trace.events());
    }

    #[test]
    fn retry_budget_is_bounded_by_degraded_mode() {
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        // A worker that crashes every 3 seconds for the first 10 minutes:
        // most requests cannot finish between crashes, so they exhaust
        // their retry budget and complete degraded.
        let mut fault_plan = real_sim::FaultPlan::new(1);
        for i in 0..200 {
            fault_plan = fault_plan.crash(0, 3.0 * f64::from(i), 1.0);
        }
        let cfg = EngineConfig {
            max_retries: 2,
            ..EngineConfig::default()
        }
        .with_fault_plan(fault_plan);
        let report = RuntimeEngine::new(cluster, graph, cfg)
            .run(&plan, 1)
            .unwrap();
        let f = &report.faults;
        // Completed despite the hostile schedule — no deadlock...
        assert_eq!(report.timings.len(), 6);
        // ...with every request bounded to max_retries + 1 + 1 attempts.
        assert!(f.dispatches <= 6 * 4, "{f:?}");
        assert!(f.requests_degraded >= 1, "{f:?}");
        assert!(f.backoff_seconds > 0.0);
    }

    #[test]
    fn slowdown_trips_deadline_and_retry_succeeds() {
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let base = RuntimeEngine::new(cluster.clone(), graph.clone(), EngineConfig::default())
            .run(&plan, 1)
            .unwrap();
        let gen = base
            .timings
            .iter()
            .find(|t| t.call_name == "actor_gen")
            .unwrap();
        // A 100x straggler for 2.5x generation's fault-free wall: the first
        // attempt integrates to ~3.5x nominal and blows the 3x deadline at
        // start + 3x nominal; the retry (after backoff) lands past the
        // window and runs clean.
        let wall = gen.end - gen.start;
        let fault_plan =
            real_sim::FaultPlan::new(1).slowdown(2, gen.start, gen.start + 2.5 * wall, 100.0);
        let cfg = EngineConfig::default().with_fault_plan(fault_plan);
        let report = RuntimeEngine::new(cluster, graph, cfg)
            .run(&plan, 1)
            .unwrap();
        let f = &report.faults;
        assert!(f.timeouts >= 1, "{f:?}");
        assert!(f.requests_recovered >= 1, "{f:?}");
        assert_eq!(report.timings.len(), 6);
    }

    fn estimator(cluster: &ClusterSpec, graph: &DataflowGraph) -> Estimator {
        let actor = ModelSpec::llama3_7b();
        let mut profiler = real_profiler::Profiler::new(
            cluster.clone(),
            real_profiler::ProfileConfig::quick(),
            21,
        );
        let profiles = vec![profiler.profile(&actor), profiler.profile(&actor.critic())];
        Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap()
    }

    fn quick_policy() -> ReplanPolicy {
        ReplanPolicy::new().with_search_steps(300)
    }

    #[test]
    fn replan_without_fault_plan_is_plain_run() {
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let est = estimator(&cluster, &graph);
        let engine = RuntimeEngine::new(cluster, graph, EngineConfig::default());
        let a = engine.run(&plan, 2).unwrap();
        let b = engine.run_replan(&plan, 2, &quick_policy(), &est).unwrap();
        assert_eq!(a.timings, b.timings);
        assert_eq!(a.total_time, b.total_time);
        assert!(b.replan.is_empty());
    }

    #[test]
    fn replan_with_transient_faults_matches_plain_faulted_run() {
        // A crash with a short restart never trips the dead-worker cap or
        // the boundary triggers, so the re-planning loop must reproduce the
        // plain resilient run exactly.
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let est = estimator(&cluster, &graph);
        let base = RuntimeEngine::new(cluster.clone(), graph.clone(), EngineConfig::default())
            .run(&plan, 2)
            .unwrap();
        let gen = base
            .timings
            .iter()
            .find(|t| t.call_name == "actor_gen" && t.iter == 0)
            .unwrap();
        let mid = (gen.start + gen.end) / 2.0;
        let cfg =
            EngineConfig::default().with_fault_plan(real_sim::FaultPlan::new(5).crash(3, mid, 2.0));
        let engine = RuntimeEngine::new(cluster, graph, cfg);
        let a = engine.run(&plan, 2).unwrap();
        let b = engine.run_replan(&plan, 2, &quick_policy(), &est).unwrap();
        assert_eq!(a.timings, b.timings);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.faults, b.faults);
        assert!(b.replan.is_empty());
    }

    #[test]
    fn dead_worker_switches_to_surviving_plan() {
        // A permanent crash (restart far beyond the run) makes the plain
        // resilient run wait out the downtime; the re-planning run must
        // switch to a surviving mesh and finish orders of magnitude sooner.
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let est = estimator(&cluster, &graph);
        let base = RuntimeEngine::new(cluster.clone(), graph.clone(), EngineConfig::default())
            .run(&plan, 2)
            .unwrap();
        let gen = base
            .timings
            .iter()
            .find(|t| t.call_name == "actor_gen" && t.iter == 0)
            .unwrap();
        let mid = (gen.start + gen.end) / 2.0;
        let cfg = EngineConfig::default()
            .with_fault_plan(real_sim::FaultPlan::new(5).crash(3, mid, 1.0e6));
        let engine = RuntimeEngine::new(cluster, graph, cfg);
        let waited = engine.run(&plan, 2).unwrap();
        assert!(waited.total_time > 1.0e6, "{}", waited.total_time);
        let replanned = engine.run_replan(&plan, 2, &quick_policy(), &est).unwrap();
        assert_eq!(replanned.replan.switches, 1, "{:?}", replanned.replan);
        assert!(
            matches!(
                replanned.replan.events[0].reason,
                ReplanReason::DeadWorker { gpu: 3 }
            ),
            "{:?}",
            replanned.replan.events
        );
        assert!(
            replanned.total_time < waited.total_time / 100.0,
            "replanned {} vs waited {}",
            replanned.total_time,
            waited.total_time
        );
        // Strictly higher throughput, and the switched plan avoids the dead
        // GPU from the switch onward.
        assert!(replanned.iter_time < waited.iter_time);
        assert_eq!(replanned.timings.len(), 12);
    }

    #[test]
    fn replanned_runs_replay_bit_identically() {
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let est = estimator(&cluster, &graph);
        let cfg = EngineConfig::default()
            .with_fault_plan(real_sim::FaultPlan::new(5).crash(3, 5.0, 1.0e6))
            .with_trace(4096);
        let engine = RuntimeEngine::new(cluster, graph, cfg);
        let a = engine.run_replan(&plan, 2, &quick_policy(), &est).unwrap();
        let b = engine.run_replan(&plan, 2, &quick_policy(), &est).unwrap();
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.timings, b.timings);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.replan, b.replan);
        assert_eq!(a.trace.events(), b.trace.events());
    }

    #[test]
    fn two_iterations_cost_less_than_twice_one() {
        // Cross-iteration overlap plus amortized warm-up.
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let engine = RuntimeEngine::new(cluster, graph, EngineConfig::deterministic());
        let one = engine.run(&plan, 1).unwrap().total_time;
        let two = engine.run(&plan, 2).unwrap().total_time;
        assert!(two < 2.0 * one * 1.05, "one {one} two {two}");
    }
}
