//! REAL-Heuristic (§8.1): the pre-training-inspired baseline plan. One
//! symmetric 3D strategy over the full cluster for every call — intra-node
//! TP, inter-node PP sized so the largest trainable model fits, DP
//! maximized with the remainder — plus per-call micro-batch counts chosen
//! minimally within memory.

use real_cluster::DeviceMesh;
use real_dataflow::{CallAssignment, CallId, ExecutionPlan};
use real_estimator::Estimator;
use real_model::{MemoryModel, ParallelStrategy};

/// Fraction of device memory the heuristic budget targets (leaves headroom
/// for fragmentation, like production launch configs do).
const MEM_BUDGET: f64 = 0.90;

/// No symmetric 3D strategy over the full cluster fits the heaviest
/// trainable model's static memory: the workload is too large for the
/// cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoSymmetricPlan {
    /// The heaviest trainable model.
    pub model: String,
    /// GPUs in the cluster.
    pub gpus: u32,
}

impl std::fmt::Display for NoSymmetricPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no symmetric plan fits: {} is too large for {} GPUs",
            self.model, self.gpus
        )
    }
}

impl std::error::Error for NoSymmetricPlan {}

/// Builds the REAL-Heuristic plan for the estimator's workflow.
///
/// # Errors
///
/// Returns [`NoSymmetricPlan`] if no symmetric configuration fits device
/// memory at all (the workload is simply too large for the cluster).
pub fn heuristic_plan(est: &Estimator) -> Result<ExecutionPlan, NoSymmetricPlan> {
    let cluster = est.cluster();
    let graph = est.graph();
    let mesh = DeviceMesh::full(cluster);
    let n = mesh.n_gpus();
    let budget = (cluster.gpu.mem_capacity as f64 * MEM_BUDGET) as u64;

    // TP: as wide as the node allows, bounded by every model's KV heads.
    let max_tp_all = graph
        .calls()
        .iter()
        .map(|c| c.model.max_tp())
        .min()
        .expect("graphs are non-empty");
    let mut tp = cluster.gpus_per_node.min(max_tp_all as u32);
    while !n.is_multiple_of(tp) {
        tp /= 2;
    }

    // PP: smallest power-of-two divisor of the remainder such that the
    // heaviest trainable model's static memory fits (a graph that trains
    // nothing pins none); DP takes the rest.
    let heaviest = graph
        .model_names()
        .iter()
        .filter(|m| graph.is_trainable(m))
        .map(|m| graph.call(graph.calls_of_model(m)[0]).model.clone())
        .max_by_key(|m| m.param_count())
        .map(MemoryModel::new);
    let rest = n / tp;
    let mut pp = 1;
    while let Some(mm) = &heaviest {
        if pp > rest {
            return Err(NoSymmetricPlan {
                model: mm.model().name.clone(),
                gpus: n,
            });
        }
        let s =
            ParallelStrategy::new(rest / pp, tp, pp, 1).expect("heuristic degrees are positive");
        if mm.static_train_bytes(&s) <= budget {
            break;
        }
        pp *= 2;
        while pp <= rest && !rest.is_multiple_of(pp) {
            pp *= 2;
        }
    }
    let dp = rest / pp;

    // Per call: smallest power-of-two micro-batch count that fits active
    // memory next to every model's static share.
    let mut assignments = Vec::with_capacity(graph.n_calls());
    for call in 0..graph.n_calls() {
        let id = CallId(call);
        let mut mbs = 1;
        let assignment = loop {
            let s = ParallelStrategy::new(dp, tp, pp, mbs).expect("positive degrees");
            let a = CallAssignment::new(mesh, s).expect("strategy fills the full mesh");
            let candidate = clone_with(est, &assignments, id, a, graph.n_calls());
            if est.mem_ok(&candidate) || mbs >= 64 {
                break a;
            }
            mbs *= 2;
        };
        assignments.push(assignment);
    }
    Ok(ExecutionPlan::new(graph, cluster, assignments).expect("heuristic plan validates"))
}

/// Builds a provisional full plan for memory checking: decided assignments
/// so far, `candidate` at position `id`, and `candidate` repeated for the
/// undecided tail (symmetric plans make this exact).
fn clone_with(
    est: &Estimator,
    decided: &[CallAssignment],
    id: CallId,
    candidate: CallAssignment,
    n_calls: usize,
) -> ExecutionPlan {
    let mut assignments: Vec<CallAssignment> = decided.to_vec();
    assignments.push(candidate);
    while assignments.len() < n_calls {
        assignments.push(candidate);
    }
    debug_assert_eq!(assignments[id.0], candidate);
    ExecutionPlan::new(est.graph(), est.cluster(), assignments)
        .expect("symmetric candidates validate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::ClusterSpec;
    use real_dataflow::algo::{ppo, RlhfConfig};
    use real_model::ModelSpec;
    use real_profiler::{ProfileConfig, Profiler};

    fn estimator(nodes: u32, actor: ModelSpec, critic: ModelSpec, batch: u64) -> Estimator {
        let cluster = ClusterSpec::h100(nodes);
        let graph = ppo(&actor, &critic, &RlhfConfig::instruct_gpt(batch));
        let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 9);
        let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
        Estimator::new(cluster, graph, profiles).unwrap()
    }

    #[test]
    fn heuristic_7b_uses_full_node_tp_no_pp() {
        let est = estimator(
            2,
            ModelSpec::llama3_7b(),
            ModelSpec::llama3_7b().critic(),
            512,
        );
        let plan = heuristic_plan(&est).unwrap();
        let a = plan.assignment(CallId(0));
        assert_eq!(a.strategy.tp(), 8);
        assert_eq!(a.strategy.pp(), 1, "7B fits without pipeline");
        assert_eq!(a.strategy.dp(), 2);
        assert_eq!(a.mesh.n_gpus(), 16);
    }

    #[test]
    fn heuristic_is_symmetric_across_calls() {
        let est = estimator(
            2,
            ModelSpec::llama3_7b(),
            ModelSpec::llama3_7b().critic(),
            512,
        );
        let plan = heuristic_plan(&est).unwrap();
        let first = plan.assignment(CallId(0));
        for a in plan.assignments() {
            assert_eq!(a.mesh, first.mesh);
            assert_eq!(a.strategy.tp(), first.strategy.tp());
            assert_eq!(a.strategy.pp(), first.strategy.pp());
            assert_eq!(a.strategy.dp(), first.strategy.dp());
        }
    }

    #[test]
    fn heuristic_fits_memory() {
        let est = estimator(
            2,
            ModelSpec::llama3_7b(),
            ModelSpec::llama3_7b().critic(),
            512,
        );
        let plan = heuristic_plan(&est).unwrap();
        assert!(est.mem_ok(&plan));
    }

    #[test]
    fn a_model_too_large_for_the_cluster_is_an_error() {
        // 70B needs 32-way model sharding; one node has 8 GPUs.
        let est = estimator(
            1,
            ModelSpec::llama3_70b(),
            ModelSpec::llama3_70b().critic(),
            64,
        );
        let e = heuristic_plan(&est).unwrap_err();
        assert_eq!(e.gpus, 8);
        assert_eq!(e.model, ModelSpec::llama3_70b().name);
    }

    #[test]
    fn heuristic_70b_on_16_nodes_matches_table3_shape() {
        // Table 3: the 70B + 7B heuristic on 16 nodes uses TP 8, PP 4, DP 4.
        let est = estimator(
            16,
            ModelSpec::llama3_70b(),
            ModelSpec::llama3_7b().critic(),
            512,
        );
        let plan = heuristic_plan(&est).unwrap();
        let a = plan.assignment(CallId(0));
        assert_eq!(a.strategy.tp(), 8);
        assert_eq!(a.strategy.pp(), 4, "70B needs 32-way model sharding");
        assert_eq!(a.strategy.dp(), 4);
        assert!(est.mem_ok(&plan));
    }
}
