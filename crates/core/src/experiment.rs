//! The experiment facade: profile → search → run, like the paper's `@auto`
//! decorator (Appendix B).

use crate::report::ExperimentReport;
use real_cluster::ClusterSpec;
use real_dataflow::algo::{self, RlhfConfig};
use real_dataflow::{DataflowGraph, ExecutionPlan, GraphSpec, SpecError};
use real_estimator::{CostMemo, Estimator};
use real_model::ModelSpec;
use real_profiler::{ProfileConfig, Profiler};
use real_runtime::{EngineConfig, ReplanPolicy, RunError, RuntimeEngine};
use real_search::{
    heuristic_plan, search_speculative, ImpossibleCall, McmcConfig, NoSymmetricPlan, PruneLevel,
    SearchResult, SearchSpace, SpecMenu, SpecSearchResult,
};
use std::collections::HashSet;

/// An RLHF experiment: a cluster, a workflow, and the knobs needed to plan
/// and execute it.
#[derive(Debug, Clone)]
pub struct Experiment {
    cluster: ClusterSpec,
    graph: DataflowGraph,
    profile_config: ProfileConfig,
    engine_config: EngineConfig,
    prune_level: PruneLevel,
    seed: u64,
    /// Pre-loaded profiles (keyed by architecture name); architectures not
    /// covered here are profiled on demand. Lets users reuse profiling
    /// statistics across experiments within a model family (§8.2).
    preloaded_profiles: Vec<real_profiler::ProfileDb>,
    /// Elastic re-planning policy; [`Self::run`] routes through
    /// [`RuntimeEngine::run_replan`] when set together with a fault plan.
    replan_policy: Option<ReplanPolicy>,
    /// Async off-policy staleness bound; [`Self::run`] routes through
    /// [`RuntimeEngine::run_async`] when set (unless re-planning is
    /// active, which takes precedence).
    async_staleness: Option<u32>,
}

/// Why automatic planning failed.
#[derive(Debug, Clone)]
pub enum PlanFailure {
    /// Some call has no valid option on this cluster: the workload is
    /// impossible regardless of search budget.
    ImpossibleWorkload(ImpossibleCall),
    /// The search ran but every visited plan exceeded device memory; the
    /// best (infeasible) result is attached for diagnosis.
    NoFeasiblePlan(Box<SearchResult>),
}

impl std::fmt::Display for PlanFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanFailure::ImpossibleWorkload(e) => write!(f, "{e}"),
            PlanFailure::NoFeasiblePlan(r) => write!(
                f,
                "no memory-feasible plan found (best infeasible TimeCost {:.1}s)",
                r.best_time_cost
            ),
        }
    }
}

impl std::error::Error for PlanFailure {}

/// The outcome of automatic planning.
#[derive(Debug, Clone)]
pub struct PlannedExperiment {
    /// The selected execution plan (speculative only when speculation
    /// strictly beat plain decode).
    pub plan: ExecutionPlan,
    /// Search statistics: the plain assignment search (trace, acceptance,
    /// chain state) and the speculation refinement, if one ran.
    pub search: SpecSearchResult,
    /// Simulated seconds spent profiling before the search (Fig. 12 left).
    pub profiling_secs: f64,
}

impl Experiment {
    /// Creates an experiment from a custom workflow graph.
    pub fn new(cluster: ClusterSpec, graph: DataflowGraph) -> Self {
        Self {
            cluster,
            graph,
            profile_config: ProfileConfig::paper(),
            engine_config: EngineConfig::default(),
            prune_level: PruneLevel::Aggressive,
            seed: 1,
            preloaded_profiles: Vec::new(),
            replan_policy: None,
            async_staleness: None,
        }
    }

    /// Creates an experiment from a `graph.json` workflow specification
    /// (the [`GraphSpec`] DSL): the graph is validated structurally, the
    /// spec's per-call hooks are installed into the engine configuration,
    /// and an `offpolicy` section enables staleness-bounded async
    /// execution.
    ///
    /// # Errors
    ///
    /// Returns the spec's first [`SpecError`].
    ///
    /// # Examples
    ///
    /// ```
    /// use real_cluster::ClusterSpec;
    /// use real_core::Experiment;
    /// use real_dataflow::GraphSpec;
    ///
    /// let json = r#"{
    ///     "models": [{"role": "m", "arch": "7b"}],
    ///     "data": ["prompts"],
    ///     "calls": [
    ///         {"name": "m_gen", "model": "m", "kind": "gen",
    ///          "batch": 32, "prompt_len": 128, "gen_len": 128,
    ///          "inputs": ["prompts"], "outputs": ["seq"]},
    ///         {"name": "m_train", "model": "m", "kind": "train",
    ///          "batch": 32, "seq_len": 256, "inputs": ["seq"]}
    ///     ],
    ///     "offpolicy": {"staleness": 1}
    /// }"#;
    /// let spec: GraphSpec = serde_json::from_str(json).unwrap();
    /// let exp = Experiment::from_graph(ClusterSpec::h100(1), &spec).unwrap();
    /// assert_eq!(exp.async_staleness(), Some(1));
    /// ```
    pub fn from_graph(cluster: ClusterSpec, spec: &GraphSpec) -> Result<Self, SpecError> {
        let built = spec.build()?;
        let mut exp = Self::new(cluster, built.graph);
        exp.engine_config.call_hooks = built.hooks;
        exp.async_staleness = built.async_staleness;
        Ok(exp)
    }

    /// Convenience: the standard PPO workflow (Fig. 4).
    pub fn ppo(cluster: ClusterSpec, actor: ModelSpec, critic: ModelSpec, cfg: RlhfConfig) -> Self {
        let graph = algo::ppo(&actor, &critic, &cfg);
        Self::new(cluster, graph)
    }

    /// Convenience: the DPO workflow (§8.3).
    pub fn dpo(cluster: ClusterSpec, actor: ModelSpec, cfg: RlhfConfig) -> Self {
        Self::new(cluster.clone(), algo::dpo(&actor, &cfg))
    }

    /// Convenience: the GRPO workflow (§8.3).
    pub fn grpo(
        cluster: ClusterSpec,
        actor: ModelSpec,
        reward: ModelSpec,
        cfg: RlhfConfig,
    ) -> Self {
        Self::new(cluster.clone(), algo::grpo(&actor, &reward, &cfg))
    }

    /// Convenience: the ReMax workflow (§8.3).
    pub fn remax(
        cluster: ClusterSpec,
        actor: ModelSpec,
        reward: ModelSpec,
        cfg: RlhfConfig,
    ) -> Self {
        Self::new(cluster.clone(), algo::remax(&actor, &reward, &cfg))
    }

    /// Convenience: the RAFT workflow (reward-ranked fine-tuning).
    pub fn raft(
        cluster: ClusterSpec,
        actor: ModelSpec,
        reward: ModelSpec,
        cfg: RlhfConfig,
    ) -> Self {
        Self::new(cluster.clone(), algo::raft(&actor, &reward, &cfg))
    }

    /// Convenience: the iterative (online) DPO workflow.
    pub fn iterative_dpo(
        cluster: ClusterSpec,
        actor: ModelSpec,
        reward: ModelSpec,
        cfg: RlhfConfig,
    ) -> Self {
        Self::new(cluster.clone(), algo::iterative_dpo(&actor, &reward, &cfg))
    }

    /// Overrides the RNG seed (profiling noise, search, runtime jitter).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.engine_config.seed = seed;
        self
    }

    /// Uses the reduced profiling grid (fast; unit tests and doctests).
    pub fn with_quick_profile(mut self) -> Self {
        self.profile_config = ProfileConfig::quick();
        self
    }

    /// Overrides the runtime engine configuration.
    pub fn with_engine_config(mut self, config: EngineConfig) -> Self {
        self.engine_config = config;
        self
    }

    /// Overrides the search-space pruning level (Fig. 14's knob).
    pub fn with_prune_level(mut self, level: PruneLevel) -> Self {
        self.prune_level = level;
        self
    }

    /// Injects a deterministic fault schedule into [`Self::run`]. The
    /// runtime hardens into its resilient dispatch protocol (deadlines,
    /// bounded retries, degraded mode) and the report gains
    /// [`real_runtime::FaultStats`] accounting.
    pub fn with_fault_plan(mut self, plan: real_sim::FaultPlan) -> Self {
        self.engine_config.fault_plan = Some(plan);
        self
    }

    /// Supplies previously collected profiles (e.g. loaded from disk);
    /// matching architectures skip re-profiling in [`Self::prepare`].
    pub fn with_profiles(mut self, profiles: Vec<real_profiler::ProfileDb>) -> Self {
        self.preloaded_profiles = profiles;
        self
    }

    /// Enables elastic re-planning: when a fault plan is also injected,
    /// [`Self::run`] executes through [`RuntimeEngine::run_replan`], which
    /// can switch the run to a freshly searched plan on the surviving GPUs
    /// when the policy's triggers fire. Without a fault plan the policy is
    /// inert and runs are byte-identical to plain execution.
    pub fn with_replan_policy(mut self, policy: ReplanPolicy) -> Self {
        self.replan_policy = Some(policy);
        self
    }

    /// The configured re-plan policy, if any.
    pub fn replan_policy(&self) -> Option<&ReplanPolicy> {
        self.replan_policy.as_ref()
    }

    /// Enables async off-policy execution: [`Self::run`] routes through
    /// [`RuntimeEngine::run_async`] with the given staleness bound.
    pub fn with_async_offpolicy(mut self, staleness: u32) -> Self {
        self.async_staleness = Some(staleness);
        self
    }

    /// The async off-policy staleness bound, if the mode is enabled
    /// (via [`Self::with_async_offpolicy`] or the spec's `offpolicy`
    /// section).
    pub fn async_staleness(&self) -> Option<u32> {
        self.async_staleness
    }

    /// The experiment's workflow.
    pub fn graph(&self) -> &DataflowGraph {
        &self.graph
    }

    /// The experiment's cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The engine configuration used by [`Self::run`].
    pub fn engine_config(&self) -> &EngineConfig {
        &self.engine_config
    }

    /// Profiles every distinct architecture in the workflow (reusing one
    /// profile per architecture, as the paper does within a model family)
    /// and returns the estimator plus the simulated profiling time. With
    /// async off-policy enabled the estimator prices the staleness-bounded
    /// schedule ([`Estimator::with_staleness`]), so the search optimizes
    /// the run [`Self::run`] executes.
    pub fn prepare(&self) -> (Estimator, f64) {
        let mut profiler =
            Profiler::new(self.cluster.clone(), self.profile_config.clone(), self.seed);
        let mut seen: HashSet<String> = HashSet::new();
        let mut profiles = Vec::new();
        let mut secs = 0.0;
        for call in self.graph.calls() {
            if seen.insert(call.model.name.clone()) {
                if let Some(db) = self
                    .preloaded_profiles
                    .iter()
                    .find(|p| p.model_name() == call.model.name)
                {
                    // Reused statistics cost nothing at experiment time.
                    profiles.push(db.clone());
                } else {
                    let db = profiler.profile(&call.model);
                    secs += db.profiling_secs();
                    profiles.push(db);
                }
            }
        }
        let est = Estimator::new(self.cluster.clone(), self.graph.clone(), profiles)
            .expect("profiles cover every architecture by construction");
        match self.async_staleness {
            Some(s) => (est.with_staleness(s), secs),
            None => (est, secs),
        }
    }

    /// The pruned per-call option space.
    ///
    /// # Panics
    ///
    /// Panics when the workload cannot fit the cluster at all; use
    /// [`Self::try_search_space`] to handle that as a value.
    pub fn search_space(&self) -> SearchSpace {
        SearchSpace::build(&self.cluster, &self.graph, self.prune_level)
    }

    /// Fallible variant of [`Self::search_space`].
    ///
    /// # Errors
    ///
    /// Returns [`ImpossibleCall`] naming an unfittable call.
    pub fn try_search_space(&self) -> Result<SearchSpace, ImpossibleCall> {
        SearchSpace::try_build(&self.cluster, &self.graph, self.prune_level)
    }

    /// Automatic planning: profile, build the space, run one MCMC chain.
    /// Shorthand for [`Self::plan_search`] with one chain, no speculation
    /// and a cold memo.
    ///
    /// # Errors
    ///
    /// Returns [`PlanFailure`] when the workload cannot fit the cluster or
    /// no memory-feasible plan was found within the budget.
    pub fn plan_auto(&self, cfg: &McmcConfig) -> Result<PlannedExperiment, PlanFailure> {
        self.plan_search(cfg, 1, 1, &SpecMenu::empty())
    }

    /// Automatic planning: profile, build the space, and run
    /// [`search_speculative`] — `n_chains` independent MCMC chains (the
    /// paper's multi-core search extension) over at most `threads` worker
    /// threads, then, when `menu` offers options, a refinement that may
    /// attach draft/verify decode to generation calls. Pass
    /// [`SpecMenu::empty`] to keep speculation off.
    ///
    /// The chosen plan is bit-identical for any `threads >= 1`: chain
    /// outcomes depend only on their per-chain seeds and the merge scans
    /// results in chain order, never in completion order (the `real plan
    /// --threads` contract, see `docs/SEARCH.md`).
    ///
    /// # Errors
    ///
    /// Returns [`PlanFailure`] when the workload cannot fit the cluster or
    /// no memory-feasible plan was found within the budget.
    pub fn plan_search(
        &self,
        cfg: &McmcConfig,
        n_chains: usize,
        threads: usize,
        menu: &SpecMenu,
    ) -> Result<PlannedExperiment, PlanFailure> {
        let space = self
            .try_search_space()
            .map_err(PlanFailure::ImpossibleWorkload)?;
        let (est, profiling_secs) = self.prepare();
        let mut cfg = cfg.clone();
        cfg.seed = self.seed.wrapping_add(cfg.seed);
        let mut memo = CostMemo::new();
        let search = search_speculative(&est, &space, menu, &cfg, n_chains, threads, &mut memo);
        if !search.best().feasible {
            return Err(PlanFailure::NoFeasiblePlan(Box::new(search.base)));
        }
        Ok(PlannedExperiment {
            plan: search.best().best_plan.clone(),
            search,
            profiling_secs,
        })
    }

    /// The REAL-Heuristic symmetric plan (§8.1 baseline).
    ///
    /// # Errors
    ///
    /// Returns [`NoSymmetricPlan`] when no symmetric configuration fits
    /// device memory (the workload is too large for the cluster).
    pub fn plan_heuristic(&self) -> Result<ExecutionPlan, NoSymmetricPlan> {
        let (est, _) = self.prepare();
        heuristic_plan(&est)
    }

    /// Executes a plan on the runtime engine for `iterations` iterations.
    ///
    /// With a re-plan policy and a fault plan both set, the run goes
    /// through [`RuntimeEngine::run_replan`]; otherwise an async staleness
    /// bound routes it through [`RuntimeEngine::run_async`]. Re-planning
    /// runs the synchronous schedule only, so when both modes are set the
    /// staleness bound is not applied; the `real` CLI rejects that
    /// combination (`--replan` with `--async-offpolicy` or a graph's
    /// `offpolicy` section) instead of running it.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::OutOfMemory`] when the plan does not fit, and
    /// [`RunError::NoIterations`] when `iterations == 0`.
    pub fn run(
        &self,
        plan: &ExecutionPlan,
        iterations: usize,
    ) -> Result<ExperimentReport, RunError> {
        let mut engine_config = self.engine_config.clone();
        // Resilient dispatch derives request deadlines from predicted call
        // costs. When a fault schedule is injected and the caller did not
        // supply predictions, fill them from the §5 estimator so deadlines
        // reflect the planner's expectations rather than just the nominal
        // simulation.
        let mut prepared: Option<Estimator> = None;
        if engine_config.lacks_deadlines() {
            let (est, _) = self.prepare();
            engine_config.predict_deadlines(&est, plan);
            prepared = Some(est);
        }
        let faulted = engine_config.fault_plan.is_some();
        let engine = RuntimeEngine::new(self.cluster.clone(), self.graph.clone(), engine_config);
        let run = match &self.replan_policy {
            Some(policy) if faulted => {
                let est = match prepared {
                    Some(est) => est,
                    None => self.prepare().0,
                };
                engine.run_replan(plan, iterations, policy, &est)?
            }
            _ => match self.async_staleness {
                Some(s) => engine.run_async(plan, iterations, s)?,
                None => engine.run(plan, iterations)?,
            },
        };
        Ok(ExperimentReport::new(&self.graph, plan.clone(), run))
    }

    /// Assembles the unified observability event stream for a finished run:
    /// per-GPU kernel spans and link-utilization counters from the simulator
    /// trace, master-lane call spans with flow arrows to the workers, and
    /// per-GPU memory counter tracks. Export with
    /// [`real_obs::chrome::to_chrome_string`] and open in Perfetto or
    /// `chrome://tracing`. The kernel spans require the engine trace to be
    /// enabled ([`EngineConfig::trace_capacity`] > 0); the master-lane spans,
    /// flows, and memory tracks are always present.
    pub fn event_stream(&self, report: &ExperimentReport) -> real_obs::EventStream {
        real_runtime::obs::build_event_stream(
            &self.cluster,
            &self.graph,
            &report.plan,
            &self.engine_config,
            &report.run,
        )
    }

    /// The closed spans of a finished run, recorded straight off it: the
    /// spans of [`Experiment::event_stream`], without the stream's
    /// counters, instants and flows. Phase attribution, the critical path
    /// and [`real_obs::phase_overlap`] read these.
    pub fn spans(&self, report: &ExperimentReport) -> real_obs::SpanSet {
        let mut spans = real_obs::SpanSet::default();
        real_runtime::obs::record_run(
            &mut spans,
            &real_obs::Scope::cluster(self.cluster.gpus_per_node as usize),
            &self.cluster,
            &self.graph,
            &report.plan,
            &self.engine_config,
            &report.run,
        );
        spans
    }

    /// Metrics for a finished run: per-category busy seconds, throughput
    /// gauges, request/response counters, and per-call duration histograms.
    /// When `search` statistics are supplied (e.g. the plain search of
    /// [`PlannedExperiment::search`]), the MCMC chain telemetry is merged in
    /// so one snapshot covers both planning and execution. The namespaces
    /// (`runtime/`, `search/`) are disjoint, so the merge cannot collide.
    pub fn metrics(
        &self,
        report: &ExperimentReport,
        search: Option<&SearchResult>,
    ) -> real_obs::MetricsRegistry {
        let mut metrics = real_runtime::obs::run_metrics(&self.cluster, &report.run);
        if let Some(s) = search {
            metrics.merge(&s.telemetry);
        }
        metrics
    }

    /// Builds the phase-attributed [`real_obs::ProfileReport`] for a
    /// finished run: critical path, Fig. 8-style phase shares, per-GPU
    /// utilization, comm/compute overlap, and the per-call
    /// estimator-vs-simulated gap (Fig. 12) computed against `est` for the
    /// placements the run actually used. Pass the estimator returned by
    /// [`Experiment::prepare`] (or the one used for planning) to avoid
    /// re-profiling. The report is built from [`Experiment::spans`]; no
    /// event stream is assembled.
    pub fn profile_report(
        &self,
        report: &ExperimentReport,
        est: &Estimator,
        top_k: usize,
    ) -> real_obs::ProfileReport {
        let mut profile = real_obs::ProfileReport::from_spans(&self.spans(report), top_k);
        profile.estimator_gap = self.estimator_gap(report, est);
        profile
    }

    /// The per-call estimator-vs-simulated gap (Fig. 12) of a finished run:
    /// `est`'s Algorithm-1 duration of each call's placement against the
    /// call's mean simulated wall time, in graph order, for the calls the
    /// run executed. This is [`real_obs::ProfileReport::estimator_gap`] as
    /// [`Experiment::profile_report`] fills it.
    pub fn estimator_gap(
        &self,
        report: &ExperimentReport,
        est: &Estimator,
    ) -> Vec<real_obs::profile::CallGap> {
        self.graph
            .iter()
            .filter_map(|(id, def)| {
                let simulated = report.run.call_mean(&def.call_name)?;
                let estimated = est.call_duration(id, report.plan.assignment(id));
                Some(real_obs::profile::CallGap::new(
                    &def.call_name,
                    estimated,
                    simulated,
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::DeviceMesh;
    use real_estimator::probe;
    use std::time::Duration;

    fn quick_search() -> McmcConfig {
        McmcConfig {
            max_steps: 1_500,
            time_limit: Duration::from_secs(30),
            ..McmcConfig::default()
        }
    }

    fn experiment() -> Experiment {
        Experiment::ppo(
            ClusterSpec::h100(1),
            ModelSpec::llama3_7b(),
            ModelSpec::llama3_7b().critic(),
            RlhfConfig::instruct_gpt(64),
        )
        .with_quick_profile()
    }

    #[test]
    fn auto_plan_runs_end_to_end() {
        let exp = experiment();
        let planned = exp.plan_auto(&quick_search()).unwrap();
        assert!(planned.profiling_secs > 0.0);
        let report = exp.run(&planned.plan, 2).unwrap();
        assert!(report.run.iter_time > 0.0);
        assert!(report.tokens_per_sec > 0.0);
    }

    #[test]
    fn searched_beats_heuristic_here_too() {
        let exp = experiment();
        let planned = exp.plan_auto(&quick_search()).unwrap();
        let heuristic = exp.plan_heuristic().unwrap();
        let searched_t = exp.run(&planned.plan, 2).unwrap().run.iter_time;
        let heuristic_t = exp.run(&heuristic, 2).unwrap().run.iter_time;
        assert!(
            searched_t < heuristic_t * 1.05,
            "searched {searched_t} vs heuristic {heuristic_t}"
        );
    }

    #[test]
    fn seeds_are_deterministic() {
        let a = experiment()
            .with_seed(9)
            .plan_auto(&quick_search())
            .unwrap();
        let b = experiment()
            .with_seed(9)
            .plan_auto(&quick_search())
            .unwrap();
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn preloaded_profiles_skip_reprofiling() {
        let exp = experiment();
        let mut profiler = Profiler::new(
            exp.cluster().clone(),
            real_profiler::ProfileConfig::quick(),
            exp.engine_config().seed,
        );
        let dbs = vec![
            profiler.profile(&ModelSpec::llama3_7b()),
            profiler.profile(&ModelSpec::llama3_7b().critic()),
        ];
        let (_, secs) = exp.clone().with_profiles(dbs).prepare();
        assert_eq!(secs, 0.0, "everything preloaded, nothing to profile");
        let (_, secs_fresh) = exp.prepare();
        assert!(secs_fresh > 0.0);
    }

    #[test]
    fn observability_covers_search_and_run() {
        let engine = EngineConfig {
            trace_capacity: 4096,
            ..EngineConfig::default()
        };
        let exp = experiment().with_engine_config(engine);
        let planned = exp.plan_auto(&quick_search()).unwrap();
        let report = exp.run(&planned.plan, 1).unwrap();

        let stream = exp.event_stream(&report);
        stream.check_invariants().unwrap();
        assert!(!stream.events().is_empty());
        assert!(stream
            .events()
            .iter()
            .any(|e| matches!(e, real_obs::StreamEvent::Counter { .. })));

        let metrics = exp.metrics(&report, Some(&planned.search.base));
        assert!(metrics.get("runtime/iterations", &[]).is_some());
        assert!(metrics.iter().any(|(k, _)| k.name() == "search/steps"));
        assert!(metrics
            .iter()
            .any(|(k, _)| k.name() == "runtime/category_seconds"));
        // Without search statistics only the runtime namespace is present.
        let run_only = exp.metrics(&report, None);
        assert!(run_only
            .iter()
            .all(|(k, _)| k.name().starts_with("runtime/")));
    }

    #[test]
    fn from_graph_installs_hooks_and_staleness() {
        let json = r#"{
            "models": [{"role": "m", "arch": "7b"}],
            "data": ["prompts"],
            "calls": [
                {"name": "m_gen", "model": "m", "kind": "gen",
                 "batch": 32, "prompt_len": 128, "gen_len": 128,
                 "inputs": ["prompts"], "outputs": ["seq"],
                 "hooks": {"pre_secs": 0.5}},
                {"name": "m_train", "model": "m", "kind": "train",
                 "batch": 32, "seq_len": 256, "inputs": ["seq"]}
            ],
            "offpolicy": {"staleness": 2}
        }"#;
        let spec: GraphSpec = serde_json::from_str(json).unwrap();
        let exp = Experiment::from_graph(ClusterSpec::h100(1), &spec).unwrap();
        assert_eq!(exp.async_staleness(), Some(2));
        assert_eq!(exp.engine_config().hook_secs("m_gen"), (0.5, 0.0));
        assert_eq!(exp.graph().n_calls(), 2);
    }

    #[test]
    fn split_plan_overlaps_async_run() {
        let exp = experiment().with_async_offpolicy(1);
        // Relaxed generation on the node's first half, the rest on the
        // second, each on its canonical strategy.
        let (cluster, graph) = (exp.cluster(), exp.graph());
        let halves = [0, 4].map(|first| DeviceMesh::sub_node(cluster, 0, first, 4).unwrap());
        let sources = graph.snapshot_sources();
        let assignments = graph
            .iter()
            .map(|(id, call)| {
                let mesh = halves[usize::from(sources[id.0].is_none())];
                probe::fit_assignment(&mesh, call).unwrap()
            })
            .collect();
        let plan = ExecutionPlan::new(graph, cluster, assignments).unwrap();
        let report = exp.run(&plan, 4).unwrap();
        assert!(report.run.async_stats.relaxed_calls > 0);
        assert!(report.run.async_stats.gen_train_overlap_secs > 0.0);
        assert!(report.run.async_stats.max_observed_staleness <= 1);
    }

    #[test]
    fn all_algorithms_construct() {
        let c = ClusterSpec::h100(1);
        let a = ModelSpec::llama3_7b();
        let cfg = RlhfConfig::instruct_gpt(64);
        assert_eq!(
            Experiment::dpo(c.clone(), a.clone(), cfg).graph().n_calls(),
            2
        );
        assert_eq!(
            Experiment::grpo(c.clone(), a.clone(), a.critic(), cfg)
                .graph()
                .n_calls(),
            4
        );
        assert_eq!(
            Experiment::remax(c.clone(), a.clone(), a.critic(), cfg)
                .graph()
                .n_calls(),
            6
        );
    }
}
