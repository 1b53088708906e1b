//! The lightweight runtime estimator (§5.1 of the paper).
//!
//! Given an execution plan, the estimator predicts
//!
//! - `TimeCost(G_p)` — by assembling per-call durations from profiled
//!   per-layer statistics ([`assemble`]), augmenting the dataflow graph with
//!   parameter-reallocation and data-transfer nodes ([`augment`]), and
//!   simulating the schedule with the paper's Algorithm 1
//!   ([`algorithm1`]), and
//! - `MaxMem(G_p)` — the per-GPU peak of static plus active memory
//!   ([`maxmem`]),
//!
//! combining both into the §5.2 search cost
//! `cost = TimeCost · (OOM ? α : 1)`.
//!
//! Estimates consume only the noisy power-of-two [`real_profiler::ProfileDb`]
//! grid and coarse closed-form pipeline formulas; the runtime engine
//! (`real-runtime`) simulates the same plan event-by-event. Their
//! disagreement is the estimator error reported in Fig. 12.
//!
//! # Examples
//!
//! ```
//! use real_cluster::{ClusterSpec, DeviceMesh};
//! use real_dataflow::{algo, CallAssignment, ExecutionPlan};
//! use real_estimator::Estimator;
//! use real_model::{ModelSpec, ParallelStrategy};
//! use real_profiler::{ProfileConfig, Profiler};
//!
//! let cluster = ClusterSpec::h100(1);
//! let actor = ModelSpec::llama3_7b();
//! let critic = actor.critic();
//! let graph = algo::ppo(&actor, &critic, &algo::RlhfConfig::instruct_gpt(64));
//! let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 1);
//! let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
//! let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
//!
//! let a = CallAssignment::new(
//!     DeviceMesh::full(&cluster),
//!     ParallelStrategy::new(1, 8, 1, 4).unwrap(),
//! ).unwrap();
//! let plan = ExecutionPlan::new(&graph, &cluster, vec![a; graph.n_calls()]).unwrap();
//! assert!(est.time_cost(&plan) > 0.0);
//! ```

pub mod algorithm1;
pub mod assemble;
pub mod augment;
pub mod maxmem;
pub mod memo;
pub mod probe;
pub mod spec;

pub use assemble::Shape;
pub use memo::{CostMemo, MemoStats, PlanPricer};

use real_cluster::{ClusterHealth, ClusterSpec, CommModel, DeviceMesh};
use real_dataflow::{CallAssignment, CallId, DataflowGraph, ExecutionPlan};
use real_profiler::ProfileDb;
use std::collections::HashMap;
use std::fmt;

/// Default number of unrolled iterations for Algorithm 1 — two, so
/// cross-iteration overlap (Fig. 4) is visible while the schedule stays
/// cheap to simulate.
pub const DEFAULT_ITERATIONS: usize = 2;

/// The §5.2 out-of-memory penalty multiplier α.
pub const OOM_PENALTY: f64 = 1000.0;

/// Errors building an [`Estimator`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimatorError {
    /// No profile was supplied for a model architecture used by the graph.
    MissingProfile(String),
}

impl fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimatorError::MissingProfile(m) => {
                write!(f, "no profile supplied for architecture {m}")
            }
        }
    }
}

impl std::error::Error for EstimatorError {}

/// The runtime estimator bound to one cluster, workflow, and profile set.
#[derive(Debug, Clone)]
pub struct Estimator {
    cluster: ClusterSpec,
    graph: DataflowGraph,
    /// Profile per *architecture* name (`ModelSpec::name`), shared by models
    /// with identical architectures (actor/reference, critic/reward) — the
    /// paper reuses profiles within a model family.
    profiles: HashMap<String, ProfileDb>,
    /// Communication model from *measured* link parameters.
    comm: CommModel,
    iterations: usize,
    /// Async off-policy staleness bound; `None` prices the synchronous
    /// schedule.
    staleness: Option<u32>,
    /// Optional live health overlay: when present, per-call durations are
    /// scaled by the mesh's slowdown factor so re-plan searches avoid slow
    /// or dead hardware.
    health: Option<ClusterHealth>,
}

impl Estimator {
    /// Builds an estimator. `profiles` must cover every distinct
    /// architecture in `graph` (keyed by `ModelSpec::name`); the first
    /// profile's measured links give the communication model.
    ///
    /// # Errors
    ///
    /// Returns [`EstimatorError::MissingProfile`] when an architecture has
    /// no profile.
    pub fn new(
        cluster: ClusterSpec,
        graph: DataflowGraph,
        profiles: Vec<ProfileDb>,
    ) -> Result<Self, EstimatorError> {
        let comm = profiles
            .first()
            .map_or_else(|| CommModel::new(&cluster), ProfileDb::comm_model);
        let map: HashMap<String, ProfileDb> = profiles
            .into_iter()
            .map(|p| (p.model_name().to_string(), p))
            .collect();
        for call in graph.calls() {
            if !map.contains_key(&call.model.name) {
                return Err(EstimatorError::MissingProfile(call.model.name.clone()));
            }
        }
        Ok(Self {
            cluster,
            graph,
            profiles: map,
            comm,
            iterations: DEFAULT_ITERATIONS,
            staleness: None,
            health: None,
        })
    }

    /// Overlays live cluster health: per-call durations are multiplied by
    /// [`ClusterHealth::mesh_factor`] of the call's mesh, so the §5.2 cost
    /// ranks plans by *degraded* throughput. Memory estimates are
    /// unaffected.
    pub fn with_health(mut self, health: ClusterHealth) -> Self {
        self.health = Some(health);
        self
    }

    /// The health overlay, if any.
    pub fn health(&self) -> Option<&ClusterHealth> {
        self.health.as_ref()
    }

    /// Digest of the health overlay the estimator prices under — the tag a
    /// [`CostMemo`] binds its entries to (`0` for no overlay; a real
    /// overlay's [`ClusterHealth::fingerprint`] otherwise, nudged off `0`
    /// so "no overlay" and "some overlay" can never alias).
    pub fn health_fingerprint(&self) -> u64 {
        match &self.health {
            None => 0,
            Some(h) => h.fingerprint().max(1),
        }
    }

    /// Overrides the number of iterations Algorithm 1 unrolls.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        assert!(iterations > 0, "must simulate at least one iteration");
        self.iterations = iterations;
        self
    }

    /// Prices the runtime's `run_async` schedule under staleness bound `s`
    /// ([`augment::Template::new`]), unrolling at least `s + 2` iterations
    /// so that every snapshot edge is priced.
    pub fn with_staleness(mut self, s: u32) -> Self {
        self.staleness = Some(s);
        self.iterations = self.iterations.max(s as usize + 2);
        self
    }

    /// The async staleness bound priced, `None` when synchronous.
    pub fn staleness(&self) -> Option<u32> {
        self.staleness
    }

    /// The workflow this estimator serves.
    pub fn graph(&self) -> &DataflowGraph {
        &self.graph
    }

    /// The number of iterations Algorithm 1 unrolls.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The cluster this estimator serves.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The measured-link communication model.
    pub fn comm(&self) -> &CommModel {
        &self.comm
    }

    pub(crate) fn profile_for(&self, call: CallId) -> &ProfileDb {
        let arch = &self.graph.call(call).model.name;
        self.profiles
            .get(arch)
            .expect("constructor verified every architecture has a profile")
    }

    /// Estimated duration of one call under `assignment` (§5.1 assembly of
    /// profiled per-layer statistics): [`Estimator::shape_duration`] of its
    /// shape, times the health overlay's [`ClusterHealth::mesh_factor`] of
    /// its mesh when there is an overlay.
    pub fn call_duration(&self, call: CallId, assignment: &CallAssignment) -> f64 {
        let d = self.shape_duration(call, &Shape::of(assignment));
        match &self.health {
            Some(h) => d * h.mesh_factor(&assignment.mesh),
            None => d,
        }
    }

    /// Estimated duration of one call on a healthy cluster under any
    /// assignment of shape `shape`.
    pub fn shape_duration(&self, call: CallId, shape: &Shape) -> f64 {
        assemble::call_duration(
            self.graph.call(call),
            shape,
            self.profile_for(call),
            &self.comm,
        )
    }

    /// [`Estimator::call_duration`] of `call` under each of `options`, in
    /// order, appended to `out`. Each distinct [`Shape`] is priced once, and
    /// each run of consecutive options on one mesh reads its health factor
    /// once, so a search space's option list (tens of thousands of options
    /// over a few thousand shapes at 1024 GPUs) costs far less than pricing
    /// every option.
    pub fn call_durations(&self, call: CallId, options: &[CallAssignment], out: &mut Vec<f64>) {
        let mut shapes: HashMap<Shape, f64, memo::FxBuild> = HashMap::default();
        let mut factor: Option<(DeviceMesh, f64)> = None;
        out.extend(options.iter().map(|a| {
            let shape = Shape::of(a);
            let d = *shapes
                .entry(shape)
                .or_insert_with(|| self.shape_duration(call, &shape));
            let Some(h) = &self.health else {
                return d;
            };
            let f = match factor {
                Some((mesh, f)) if mesh == a.mesh => f,
                _ => factor.insert((a.mesh, h.mesh_factor(&a.mesh))).1,
            };
            d * f
        }));
    }

    /// [`Estimator::call_duration`] of a generation call decoding
    /// speculatively under `choice`: the prefill price unchanged, the decode
    /// price scaled by the draft/verify round economics, plus the draft's
    /// own prefill (see [`spec`]). Under a health overlay the duration
    /// stretches by the *worse* of the target and draft meshes — a slow GPU
    /// on either stalls the round.
    pub fn spec_call_duration(
        &self,
        call: CallId,
        assignment: &CallAssignment,
        choice: &real_dataflow::SpecChoice,
    ) -> f64 {
        let d = spec::spec_generate_duration(self, call, assignment, choice);
        match &self.health {
            Some(h) => {
                d * h
                    .mesh_factor(&assignment.mesh)
                    .max(h.mesh_factor(&choice.assignment.mesh))
            }
            None => d,
        }
    }

    /// `TimeCost(G_p)`: the Algorithm 1 makespan of the augmented graph
    /// unrolled over the configured iterations, divided by the iteration
    /// count (steady-state per-iteration time).
    pub fn time_cost(&self, plan: &ExecutionPlan) -> f64 {
        let graph = augment::build(plan, self);
        algorithm1::makespan(&graph) / self.iterations as f64
    }

    /// [`Estimator::time_cost`] with observability: records Algorithm 1's
    /// queue telemetry (see [`algorithm1::Simulator::makespan_instrumented`]) plus an
    /// `estimator/call_seconds{call=<name>}` gauge per function call — the
    /// estimator side of the per-category Fig. 12 divergence comparison
    /// against the runtime's measured call durations.
    pub fn time_cost_instrumented(
        &self,
        plan: &ExecutionPlan,
        metrics: &mut real_obs::MetricsRegistry,
    ) -> f64 {
        for (id, def) in self.graph.iter() {
            let secs = match plan.spec_choice(id) {
                Some(choice) => self.spec_call_duration(id, plan.assignment(id), choice),
                None => self.call_duration(id, plan.assignment(id)),
            };
            metrics.gauge_set("estimator/call_seconds", &[("call", &def.call_name)], secs);
        }
        let graph = augment::build(plan, self);
        let per_iter = algorithm1::makespan_instrumented(&graph, metrics) / self.iterations as f64;
        metrics.gauge_set("estimator/time_cost_seconds", &[], per_iter);
        per_iter
    }

    /// `MaxMem(G_p)`: peak bytes over all GPUs.
    pub fn max_mem(&self, plan: &ExecutionPlan) -> u64 {
        maxmem::max_mem(&self.cluster, &self.graph, plan)
    }

    /// Whether the plan fits device memory.
    pub fn mem_ok(&self, plan: &ExecutionPlan) -> bool {
        self.max_mem(plan) <= self.cluster.gpu.mem_capacity
    }

    /// The §5.2 search cost: `TimeCost`, multiplied by [`OOM_PENALTY`] when
    /// `MaxMem` exceeds capacity.
    pub fn cost(&self, plan: &ExecutionPlan) -> f64 {
        self.cost_checked(plan).0
    }

    /// [`Estimator::cost`] plus whether the OOM penalty was applied — lets
    /// the search count penalty hits without a second memory pass.
    pub fn cost_checked(&self, plan: &ExecutionPlan) -> (f64, bool) {
        penalized(self.time_cost(plan), self.mem_ok(plan))
    }
}

/// The §5.2 cost composition shared by [`Estimator::cost_checked`],
/// [`PlanPricer::cost_checked`] and a search that prices the time and
/// memory halves of a proposal separately: `TimeCost`, multiplied by
/// [`OOM_PENALTY`] when the plan does not fit, plus whether the penalty
/// applied.
pub fn penalized(time_cost: f64, fits: bool) -> (f64, bool) {
    if fits {
        (time_cost, false)
    } else {
        (time_cost * OOM_PENALTY, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::DeviceMesh;
    use real_dataflow::{algo, CallAssignment};
    use real_model::{ModelSpec, ParallelStrategy};
    use real_profiler::{ProfileConfig, Profiler};

    fn setup(nodes: u32, batch: u64) -> (ClusterSpec, DataflowGraph, Estimator) {
        let cluster = ClusterSpec::h100(nodes);
        let actor = ModelSpec::llama3_7b();
        let critic = actor.critic();
        let graph = algo::ppo(&actor, &critic, &algo::RlhfConfig::instruct_gpt(batch));
        let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 3);
        let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
        let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
        (cluster, graph, est)
    }

    fn symmetric_plan(
        cluster: &ClusterSpec,
        graph: &DataflowGraph,
        dp: u32,
        tp: u32,
        pp: u32,
        mbs: u32,
    ) -> ExecutionPlan {
        let a = CallAssignment::new(
            DeviceMesh::full(cluster),
            ParallelStrategy::new(dp, tp, pp, mbs).unwrap(),
        )
        .unwrap();
        ExecutionPlan::new(graph, cluster, vec![a; graph.n_calls()]).unwrap()
    }

    #[test]
    fn the_first_profile_gives_the_comm_model() {
        // Noisy profiles measure different links per model; every build
        // must take the first one's, whatever the hash map's order.
        let cluster = ClusterSpec::h100(2);
        let actor = ModelSpec::llama3_7b();
        let critic = actor.critic();
        let graph = algo::ppo(&actor, &critic, &algo::RlhfConfig::instruct_gpt(64));
        let noisy = ProfileConfig {
            noise_sigma: 0.05,
            ..ProfileConfig::quick()
        };
        let mut profiler = Profiler::new(cluster.clone(), noisy, 3);
        let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
        let p2p = |m: &CommModel| m.p2p(1e9, false).to_bits();
        let first = p2p(&profiles[0].comm_model());
        assert_ne!(first, p2p(&profiles[1].comm_model()));
        for _ in 0..16 {
            let est = Estimator::new(cluster.clone(), graph.clone(), profiles.clone()).unwrap();
            assert_eq!(p2p(est.comm()), first);
        }
    }

    #[test]
    fn missing_profile_is_rejected() {
        let cluster = ClusterSpec::h100(1);
        let actor = ModelSpec::llama3_7b();
        let graph = algo::dpo(&actor, &algo::RlhfConfig::instruct_gpt(64));
        let err = Estimator::new(cluster, graph, vec![]).unwrap_err();
        assert_eq!(err, EstimatorError::MissingProfile("llama3-7b".into()));
    }

    #[test]
    fn time_cost_positive_and_finite() {
        let (cluster, graph, est) = setup(1, 64);
        let plan = symmetric_plan(&cluster, &graph, 1, 8, 1, 4);
        let t = est.time_cost(&plan);
        assert!(t.is_finite() && t > 0.0, "time {t}");
    }

    #[test]
    fn oom_plans_are_penalized() {
        let (cluster, graph, est) = setup(1, 512);
        // One micro-batch over the whole batch blows the logits/activation
        // budget.
        let bad = symmetric_plan(&cluster, &graph, 8, 1, 1, 1);
        let good = symmetric_plan(&cluster, &graph, 1, 8, 1, 16);
        assert!(est.mem_ok(&good), "good plan should fit");
        assert!(!est.mem_ok(&bad), "bad plan should OOM");
        assert!(est.cost(&bad) > est.time_cost(&bad) * 100.0);
        assert_eq!(est.cost(&good), est.time_cost(&good));
    }

    #[test]
    fn more_gpus_make_iterations_faster() {
        // Same workload on 1 vs 2 nodes with an analogous symmetric plan.
        let (c1, g1, e1) = setup(1, 64);
        let (c2, g2, e2) = setup(2, 64);
        let p1 = symmetric_plan(&c1, &g1, 1, 8, 1, 8);
        let p2 = symmetric_plan(&c2, &g2, 2, 8, 1, 8);
        assert!(e2.time_cost(&p2) < e1.time_cost(&p1));
    }

    #[test]
    fn estimator_is_deterministic() {
        let (cluster, graph, est) = setup(1, 64);
        let plan = symmetric_plan(&cluster, &graph, 1, 8, 1, 4);
        assert_eq!(est.time_cost(&plan), est.time_cost(&plan));
    }

    #[test]
    fn instrumented_time_cost_matches_plain() {
        let (cluster, graph, est) = setup(1, 64);
        let plan = symmetric_plan(&cluster, &graph, 1, 8, 1, 4);
        let mut m = real_obs::MetricsRegistry::new();
        let inst = est.time_cost_instrumented(&plan, &mut m);
        assert_eq!(inst, est.time_cost(&plan));
        assert_eq!(
            m.get("estimator/time_cost_seconds", &[]).unwrap().scalar(),
            inst
        );
        // One gauge per call, matching the closed-form duration.
        for (id, def) in graph.iter() {
            let got = m
                .get("estimator/call_seconds", &[("call", &def.call_name)])
                .expect("per-call gauge present")
                .scalar();
            assert_eq!(got, est.call_duration(id, plan.assignment(id)));
        }
        // The symmetric plan serializes every colocated call: pops recorded.
        let pops = m
            .get("estimator/queue_pops", &[("kind", "call")])
            .unwrap()
            .scalar();
        assert_eq!(pops, (graph.n_calls() * est.iterations()) as f64);
    }

    #[test]
    fn health_overlay_scales_degraded_plans_only() {
        use real_cluster::{ClusterHealth, GpuId};
        let (cluster, graph, est) = setup(1, 64);
        let plan = symmetric_plan(&cluster, &graph, 1, 8, 1, 4);
        let base = est.time_cost(&plan);

        // A healthy overlay changes nothing.
        let healthy = est.clone().with_health(ClusterHealth::healthy(&cluster));
        assert_eq!(healthy.time_cost(&plan), base);

        // Slowing one member GPU of the (full-cluster) mesh stretches every
        // call placed on it.
        let mut h = ClusterHealth::healthy(&cluster);
        h.mark_slow(GpuId(0), 2.0);
        let slowed = est.clone().with_health(h);
        assert!(slowed.time_cost(&plan) > base);
        for (id, def) in graph.iter() {
            let _ = def;
            let a = plan.assignment(id);
            assert_eq!(slowed.call_duration(id, a), 2.0 * est.call_duration(id, a));
        }
        // Memory estimates are unaffected.
        assert_eq!(slowed.max_mem(&plan), est.max_mem(&plan));
    }

    #[test]
    fn estimate_is_fast_enough_for_search() {
        // The paper: evaluating a candidate plan takes hundreds of
        // microseconds. Allow a generous 10 ms in unoptimized builds.
        let (cluster, graph, est) = setup(2, 512);
        let plan = symmetric_plan(&cluster, &graph, 2, 8, 1, 8);
        let start = std::time::Instant::now();
        let n = 100;
        for _ in 0..n {
            let _ = est.cost(&plan);
        }
        let per = start.elapsed().as_secs_f64() / f64::from(n);
        assert!(per < 10e-3, "per-estimate {per}s");
    }
}
