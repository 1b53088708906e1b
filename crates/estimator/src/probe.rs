//! Estimator validation probe for user-defined graphs.
//!
//! A `graph.json` spec that passes [`real_dataflow::GraphSpec::build`] is
//! structurally sound, but "well-formed" is only useful if the graph is
//! also *searchable*: the MCMC plan search prices every candidate through
//! the estimator, and a call whose profiled duration assembles to zero,
//! NaN, or infinity silently corrupts the §5.2 cost landscape. [`probe`]
//! prices every call of an estimator's graph under a canonical full-cluster
//! assignment and rejects non-finite or non-positive durations up front, so
//! `real run --graph` fails with a named call instead of a degenerate
//! search.

use crate::Estimator;
use real_cluster::DeviceMesh;
use real_dataflow::{CallAssignment, ExecutionPlan, ModelFunctionCallDef};
use real_model::ParallelStrategy;
use std::fmt;

/// Errors from [`probe`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeError {
    /// No parallel strategy fits the full-cluster mesh for this call: every
    /// (dp, tp, pp) factorization violates the model's TP bound, the layer
    /// count, or the call's global batch.
    NoFeasibleAssignment(String),
    /// The estimator priced a call at a NaN or infinite duration.
    NonFiniteDuration {
        /// Offending call.
        call: String,
        /// The assembled duration.
        secs: f64,
    },
    /// The estimator priced a call at zero or negative seconds.
    NonPositiveDuration {
        /// Offending call.
        call: String,
        /// The assembled duration.
        secs: f64,
    },
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::NoFeasibleAssignment(call) => write!(
                f,
                "call `{call}`: no parallel strategy fits the full cluster \
                 (check batch size, KV heads, and layer count)"
            ),
            ProbeError::NonFiniteDuration { call, secs } => {
                write!(
                    f,
                    "call `{call}`: estimator priced a non-finite duration ({secs})"
                )
            }
            ProbeError::NonPositiveDuration { call, secs } => {
                write!(f, "call `{call}`: estimator priced {secs}s, expected > 0")
            }
        }
    }
}

impl std::error::Error for ProbeError {}

/// One probed call: its canonical assignment and estimated duration.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbedCall {
    /// Call name.
    pub call: String,
    /// The canonical assignment the call was priced under.
    pub assignment: CallAssignment,
    /// Estimated duration under that assignment, seconds.
    pub secs: f64,
}

/// The result of a successful [`probe`]: evidence the graph is priceable.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReport {
    /// Per-call canonical durations, in call order.
    pub calls: Vec<ProbedCall>,
    /// Algorithm-1 steady-state iteration estimate of the canonical plan.
    pub time_cost: f64,
    /// Peak memory of the canonical plan, bytes.
    pub max_mem: u64,
    /// Whether the canonical plan fits device memory. `false` is *not* an
    /// error — the MCMC search explores other placements — but callers may
    /// warn.
    pub mem_ok: bool,
}

/// Picks a canonical strategy filling `mesh` for `call`: the largest
/// node-local TP the model supports, the smallest PP that makes the
/// data-parallel degree fit the call's global batch, and up to 4
/// micro-batches. Returns `None` when no factorization satisfies the
/// [`ExecutionPlan::new`] constraints.
///
/// # Examples
///
/// ```
/// use real_cluster::{ClusterSpec, DeviceMesh};
/// use real_dataflow::{algo, CallId};
/// use real_estimator::probe::fit_assignment;
/// use real_model::ModelSpec;
///
/// let cluster = ClusterSpec::h100(1);
/// let actor = ModelSpec::llama3_7b();
/// let graph = algo::dpo(&actor, &algo::RlhfConfig::instruct_gpt(64));
/// let mesh = DeviceMesh::full(&cluster);
/// let a = fit_assignment(&mesh, graph.call(CallId(0))).unwrap();
/// assert_eq!(a.strategy.world_size(), mesh.n_gpus());
/// ```
pub fn fit_assignment(mesh: &DeviceMesh, call: &ModelFunctionCallDef) -> Option<CallAssignment> {
    let n = mesh.n_gpus();
    let max_tp = u32::try_from(call.model.max_tp()).unwrap_or(u32::MAX);
    let max_pp = u32::try_from(call.model.n_layers).unwrap_or(u32::MAX);
    let batch = call.call_type.batch();
    let mut tp = mesh.gpu_width().min(max_tp).min(n);
    while !tp.is_power_of_two() {
        tp -= 1; // round down to a power of two dividing the mesh
    }
    while tp >= 1 {
        if n.is_multiple_of(tp) {
            let rest = n / tp;
            let mut pp = 1;
            while pp <= rest.min(max_pp) {
                let dp = rest / pp;
                if u64::from(dp) <= batch {
                    let micro = u32::try_from(batch / u64::from(dp))
                        .unwrap_or(4)
                        .clamp(1, 4);
                    let strategy = ParallelStrategy::new(dp, tp, pp, micro).ok()?;
                    return CallAssignment::new(*mesh, strategy).ok();
                }
                pp *= 2;
            }
        }
        tp /= 2;
    }
    None
}

/// Builds the canonical plan of the estimator's graph confined to `mesh`:
/// every call gets its [`fit_assignment`] on that mesh. Returns `None` when
/// any call fits no strategy there. This is the admission-time feasibility
/// probe `real-serve` warm-starts candidate pricing from — it answers "does
/// this tenant fit this mesh at all" without running a search.
///
/// # Examples
///
/// ```
/// use real_cluster::{ClusterSpec, DeviceMesh};
/// use real_dataflow::algo;
/// use real_estimator::{probe::fit_plan, Estimator};
/// use real_model::ModelSpec;
/// use real_profiler::{ProfileConfig, Profiler};
///
/// let cluster = ClusterSpec::h100(2);
/// let actor = ModelSpec::llama3_7b();
/// let graph = algo::dpo(&actor, &algo::RlhfConfig::instruct_gpt(64));
/// let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 1);
/// let profiles = vec![profiler.profile(&actor)];
/// let est = Estimator::new(cluster.clone(), graph, profiles).unwrap();
/// let node1 = DeviceMesh::whole_nodes(&cluster, 1, 1).unwrap();
/// let plan = fit_plan(&est, &node1).unwrap();
/// assert!(plan.assignments().iter().all(|a| node1.contains_mesh(&a.mesh)));
/// assert!(est.time_cost(&plan) > 0.0);
/// ```
pub fn fit_plan(est: &Estimator, mesh: &DeviceMesh) -> Option<ExecutionPlan> {
    let graph = est.graph();
    let assignments: Option<Vec<CallAssignment>> = graph
        .iter()
        .map(|(_, def)| fit_assignment(mesh, def))
        .collect();
    ExecutionPlan::new(graph, est.cluster(), assignments?).ok()
}

/// Prices every call of the estimator's graph under a canonical
/// full-cluster plan and validates the durations are finite and positive —
/// the contract the MCMC search and the runtime master rely on.
///
/// # Errors
///
/// Returns the first [`ProbeError`] in call order.
///
/// # Examples
///
/// ```
/// use real_cluster::ClusterSpec;
/// use real_dataflow::algo;
/// use real_estimator::{probe::probe, Estimator};
/// use real_model::ModelSpec;
/// use real_profiler::{ProfileConfig, Profiler};
///
/// let cluster = ClusterSpec::h100(1);
/// let actor = ModelSpec::llama3_7b();
/// let graph = algo::dpo(&actor, &algo::RlhfConfig::instruct_gpt(64));
/// let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 1);
/// let profiles = vec![profiler.profile(&actor)];
/// let est = Estimator::new(cluster, graph, profiles).unwrap();
/// let report = probe(&est).unwrap();
/// assert!(report.calls.iter().all(|c| c.secs > 0.0));
/// assert!(report.time_cost > 0.0);
/// ```
pub fn probe(est: &Estimator) -> Result<ProbeReport, ProbeError> {
    let mesh = DeviceMesh::full(est.cluster());
    let graph = est.graph();
    let mut assignments = Vec::with_capacity(graph.n_calls());
    let mut calls = Vec::with_capacity(graph.n_calls());
    for (id, def) in graph.iter() {
        let a = fit_assignment(&mesh, def)
            .ok_or_else(|| ProbeError::NoFeasibleAssignment(def.call_name.clone()))?;
        let secs = est.call_duration(id, &a);
        if !secs.is_finite() {
            return Err(ProbeError::NonFiniteDuration {
                call: def.call_name.clone(),
                secs,
            });
        }
        if secs <= 0.0 {
            return Err(ProbeError::NonPositiveDuration {
                call: def.call_name.clone(),
                secs,
            });
        }
        calls.push(ProbedCall {
            call: def.call_name.clone(),
            assignment: a,
            secs,
        });
        assignments.push(a);
    }
    let plan = ExecutionPlan::new(graph, est.cluster(), assignments)
        .map_err(|e| ProbeError::NoFeasibleAssignment(e.to_string()))?;
    Ok(ProbeReport {
        time_cost: est.time_cost(&plan),
        max_mem: est.max_mem(&plan),
        mem_ok: est.mem_ok(&plan),
        calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::ClusterSpec;
    use real_dataflow::{algo, GraphSpec};
    use real_model::ModelSpec;
    use real_profiler::{ProfileConfig, Profiler};

    fn estimator_for(graph: real_dataflow::DataflowGraph) -> Estimator {
        let cluster = ClusterSpec::h100(1);
        let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 1);
        let mut profiles = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for c in graph.calls() {
            if seen.insert(c.model.name.clone()) {
                profiles.push(profiler.profile(&c.model));
            }
        }
        Estimator::new(cluster, graph, profiles).unwrap()
    }

    #[test]
    fn probe_accepts_every_builtin_constructor() {
        let actor = ModelSpec::llama3_7b();
        let critic = actor.critic();
        let cfg = algo::RlhfConfig::instruct_gpt(64);
        for graph in [
            algo::ppo(&actor, &critic, &cfg),
            algo::dpo(&actor, &cfg),
            algo::grpo(&actor, &critic, &cfg),
            algo::remax(&actor, &critic, &cfg),
        ] {
            let est = estimator_for(graph);
            let report = probe(&est).unwrap();
            assert!(report.time_cost > 0.0);
            assert!(report.max_mem > 0);
            assert!(report
                .calls
                .iter()
                .all(|c| c.secs.is_finite() && c.secs > 0.0));
        }
    }

    #[test]
    fn probe_accepts_dsl_loaded_graph() {
        let json = r#"{
            "models": [{"role": "m", "arch": "7b"}],
            "data": ["prompts"],
            "calls": [
                {"name": "m_gen", "model": "m", "kind": "gen",
                 "batch": 32, "prompt_len": 128, "gen_len": 128,
                 "inputs": ["prompts"], "outputs": ["seq"]},
                {"name": "m_train", "model": "m", "kind": "train",
                 "batch": 32, "seq_len": 256, "inputs": ["seq"]}
            ]
        }"#;
        let built = serde_json::from_str::<GraphSpec>(json)
            .unwrap()
            .build()
            .unwrap();
        let report = probe(&estimator_for(built.graph)).unwrap();
        assert_eq!(report.calls.len(), 2);
    }

    #[test]
    fn probe_rejects_batch_smaller_than_any_dp() {
        // A batch of 1 with max_tp 8 on 8 GPUs still fits (dp=1, tp=8), so
        // force infeasibility with a model allowing only tp=1 and pp=1
        // (single layer, single KV head) — 8 GPUs then demand dp=8 > batch.
        let mut tiny = ModelSpec::llama3_7b();
        tiny.name = "tiny".to_string();
        tiny.n_kv_heads = 1;
        tiny.n_heads = 1;
        tiny.n_layers = 1;
        let graph =
            real_dataflow::DataflowGraph::new(vec![real_dataflow::ModelFunctionCallDef::new(
                "t_inf",
                "t",
                tiny,
                real_dataflow::CallType::Inference {
                    batch: 1,
                    seq_len: 64,
                },
                &[],
                &[],
            )])
            .unwrap();
        let est = estimator_for(graph);
        assert!(matches!(
            probe(&est),
            Err(ProbeError::NoFeasibleAssignment(c)) if c == "t_inf"
        ));
    }

    #[test]
    fn fit_plan_confines_every_call_to_the_mesh() {
        let actor = ModelSpec::llama3_7b();
        let cluster = ClusterSpec::h100(2);
        let graph = algo::dpo(&actor, &algo::RlhfConfig::instruct_gpt(64));
        let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 1);
        let profiles = vec![profiler.profile(&actor)];
        let est = Estimator::new(cluster.clone(), graph, profiles).unwrap();
        for node in 0..2 {
            let mesh = DeviceMesh::whole_nodes(&cluster, node, 1).unwrap();
            let plan = fit_plan(&est, &mesh).unwrap();
            let contained = plan
                .assignments()
                .iter()
                .all(|a| mesh.contains_mesh(&a.mesh));
            assert!(contained, "plan escaped node {node}");
            assert!(est.time_cost(&plan) > 0.0);
        }
    }

    #[test]
    fn fit_assignment_respects_model_bounds() {
        let cluster = ClusterSpec::h100(2);
        let mesh = DeviceMesh::full(&cluster);
        let graph = algo::ppo(
            &ModelSpec::llama3_7b(),
            &ModelSpec::llama3_7b().critic(),
            &algo::RlhfConfig::instruct_gpt(64),
        );
        for c in graph.calls() {
            let a = fit_assignment(&mesh, c).unwrap();
            assert_eq!(a.strategy.world_size(), mesh.n_gpus());
            assert!(u64::from(a.strategy.tp()) <= c.model.max_tp());
            assert!(u64::from(a.strategy.dp()) <= c.call_type.batch());
        }
    }
}
