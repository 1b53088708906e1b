//! Construction of the augmented dataflow graph `G_p` (§4, Fig. 5): the
//! per-iteration call nodes plus parameter-reallocation and data-transfer
//! nodes, unrolled over a fixed number of iterations.

use crate::Estimator;
use real_cluster::DeviceMesh;
use real_dataflow::{CallAssignment, CallId, DataflowGraph, ExecutionPlan, SpecChoice};
use real_model::MemoryModel;

/// What an augmented node does.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A model function call.
    Call {
        /// The underlying call.
        call: CallId,
        /// Which unrolled iteration it belongs to.
        iter: usize,
    },
    /// Moving a model's parameters from one layout to another.
    Realloc {
        /// Owning model name.
        model: String,
        /// Iteration of the *destination* call.
        iter: usize,
    },
    /// Moving output data between producer and consumer meshes.
    Transfer {
        /// Producer call.
        from: CallId,
        /// Consumer call.
        to: CallId,
        /// Iteration.
        iter: usize,
    },
}

/// A node of the augmented graph, ready for Algorithm 1.
#[derive(Debug, Clone)]
pub struct AugNode {
    /// Node role (for debugging and breakdowns).
    pub kind: NodeKind,
    /// Estimated duration in seconds.
    pub duration: f64,
    /// Device meshes the node occupies (one for calls; source + destination
    /// for reallocations and transfers).
    pub meshes: Vec<DeviceMesh>,
    /// Indices of parent nodes within the node list.
    pub parents: Vec<usize>,
}

impl AugNode {
    /// Whether this node contends for devices with `other` (any mesh pair
    /// overlapping).
    pub fn overlaps(&self, other: &AugNode) -> bool {
        self.meshes
            .iter()
            .any(|a| other.meshes.iter().any(|b| a.overlaps(b)))
    }
}

/// Estimated cost of reallocating `model`'s BF16 weights from the source
/// assignment to the destination assignment.
///
/// Per §5.1 the estimator "approximates the time with the data size and the
/// bandwidth": every destination GPU must receive its destination shard; the
/// broadcasts run in parallel, so the cost is the per-destination shard over
/// the slowest link involved, plus a latency per pipeline-stage pair.
pub fn realloc_cost(
    est: &Estimator,
    model: &real_model::ModelSpec,
    src: &CallAssignment,
    dst: &CallAssignment,
) -> f64 {
    if src == dst {
        return 0.0;
    }
    let mm = MemoryModel::new(model.clone());
    let shard_bytes = mm.weight_bytes_per_gpu(&dst.strategy) as f64;
    // Same single node for both meshes → NVLink; anything else is
    // conservatively priced at fabric bandwidth.
    let within = src.mesh.n_nodes() == 1
        && dst.mesh.n_nodes() == 1
        && src.mesh.node_start() == dst.mesh.node_start();
    let stage_pairs = f64::from(src.strategy.pp() * dst.strategy.pp());
    est.comm().broadcast(shard_bytes, 2, within) + stage_pairs * est.comm().p2p(0.0, within)
}

/// Estimated cost of transferring one call's outputs, produced under
/// assignment `a`, to a consumer under `b` on a different mesh. Token ids,
/// log-probs and scalar rewards are small (§6 notes this cost is minor); we
/// price 8 bytes per token of payload.
pub fn transfer_cost_between(
    est: &Estimator,
    graph: &DataflowGraph,
    from: CallId,
    a: &CallAssignment,
    b: &CallAssignment,
) -> f64 {
    if a.mesh == b.mesh && a.strategy == b.strategy {
        return 0.0;
    }
    let call = graph.call(from);
    let bytes = call.call_type.total_tokens() as f64 * 8.0;
    let within = a.mesh.n_nodes() == 1
        && b.mesh.n_nodes() == 1
        && a.mesh.node_start() == b.mesh.node_start();
    // Split across DP producers broadcasting in parallel.
    let per_src = bytes / f64::from(a.strategy.dp());
    est.comm().broadcast(per_src, 2, within)
}

/// Edge-cost oracle for [`Template::instantiate`].
///
/// The template fixes the *structure* of the augmented graph; an
/// implementation of this trait supplies the per-node prices. The
/// direct implementation (on `&Estimator`) calls the estimator's pricing
/// functions; the memoized one ([`crate::memo::CostMemo`] via
/// [`crate::PlanPricer`]) consults its cache first. Both must return
/// bit-identical values for the two paths to produce bit-identical
/// makespans.
pub trait NodeCosts {
    /// Duration of `call` under assignment `a` (seconds).
    fn duration(&mut self, call: CallId, a: &CallAssignment) -> f64;
    /// Cost of reallocating the model of `dst_call` from layout `src` to
    /// layout `dst` (seconds).
    fn realloc(&mut self, dst_call: CallId, src: &CallAssignment, dst: &CallAssignment) -> f64;
    /// Cost of moving `from`'s outputs (under `a`) to a consumer under `b`
    /// (seconds).
    fn transfer(&mut self, from: CallId, a: &CallAssignment, b: &CallAssignment) -> f64;
    /// Duration of generation call `call` under `a`, decoding speculatively
    /// under `choice` (seconds).
    fn spec_duration(&mut self, call: CallId, a: &CallAssignment, choice: &SpecChoice) -> f64;

    /// Duration of `call`'s node under `a`: [`NodeCosts::spec_duration`]
    /// when `plan` decodes `call` speculatively, [`NodeCosts::duration`]
    /// otherwise (seconds).
    fn call_node(&mut self, plan: &ExecutionPlan, call: CallId, a: &CallAssignment) -> f64 {
        match plan.spec_choice(call) {
            Some(choice) => self.spec_duration(call, a, choice),
            None => self.duration(call, a),
        }
    }
}

/// The unmemoized [`NodeCosts`]: every query goes straight to the
/// estimator's pricing functions.
impl NodeCosts for &Estimator {
    fn duration(&mut self, call: CallId, a: &CallAssignment) -> f64 {
        self.call_duration(call, a)
    }

    fn realloc(&mut self, dst_call: CallId, src: &CallAssignment, dst: &CallAssignment) -> f64 {
        realloc_cost(self, &self.graph().call(dst_call).model, src, dst)
    }

    fn transfer(&mut self, from: CallId, a: &CallAssignment, b: &CallAssignment) -> f64 {
        transfer_cost_between(self, self.graph(), from, a, b)
    }

    fn spec_duration(&mut self, call: CallId, a: &CallAssignment, choice: &SpecChoice) -> f64 {
        self.spec_call_duration(call, a, choice)
    }
}

/// The plan-independent structure of the augmented graph: topological order
/// plus each call's parameter-version predecessor links, precomputed once
/// per (graph, iterations) pair.
///
/// [`build`] recomputed this structure on every invocation — including a
/// quadratic "which model call precedes me" scan — which the MCMC search
/// paid per proposal. A `Template` hoists all of it out of the hot loop:
/// [`Template::instantiate`] only walks the precomputed links and asks a
/// [`NodeCosts`] oracle for edge prices, so re-pricing a plan does no graph
/// analysis at all.
#[derive(Debug, Clone)]
pub struct Template {
    iterations: usize,
    topo: Vec<CallId>,
    /// Per call: the same model's previous call within one iteration.
    prev_in_iter: Vec<Option<CallId>>,
    /// Per call: the same model's last call in topological order (the
    /// cross-iteration wrap-around predecessor).
    model_last: Vec<CallId>,
}

impl Template {
    /// Precomputes the augmented-graph structure for `iterations` unrolled
    /// iterations of `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn new(graph: &DataflowGraph, iterations: usize) -> Self {
        assert!(iterations > 0, "must unroll at least one iteration");
        let topo = graph.topo_order().expect("validated graphs are acyclic");
        let n = graph.n_calls();
        let mut prev_in_iter = vec![None; n];
        let mut model_last = vec![CallId(usize::MAX); n];
        for model_name in graph.model_names() {
            let model_calls = graph.calls_of_model(model_name);
            let order: Vec<CallId> = topo
                .iter()
                .filter(|c| model_calls.contains(c))
                .copied()
                .collect();
            let last = *order.last().expect("models have at least one call");
            for (pos, &call) in order.iter().enumerate() {
                if pos > 0 {
                    prev_in_iter[call.0] = Some(order[pos - 1]);
                }
                model_last[call.0] = last;
            }
        }
        Self {
            iterations,
            topo,
            prev_in_iter,
            model_last,
        }
    }

    /// Number of unrolled iterations the template was built for.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// A lower bound on `TimeCost` that reads only call durations
    /// (`durations[call]`, the value the call node takes in
    /// [`Template::instantiate`]): the longest path through the unrolled
    /// call nodes over the edges `instantiate` wires — data dependencies,
    /// the model's previous call in the iteration, and the cross-iteration
    /// wrap-around from the model's last call — divided by the iteration
    /// count.
    ///
    /// The bound is exact in floating point, with no epsilon: Algorithm 1
    /// starts every node no earlier than each parent's end, the transfer and
    /// reallocation nodes this path skips only add non-negative time, and
    /// `fl(x + d)` and `fl(x / K)` are monotone in `x`. So it never exceeds
    /// the makespan-derived `TimeCost` of the same durations, nor the §5.2
    /// cost (the OOM penalty is ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics unless `durations` has one entry per call of `graph`.
    pub fn critical_path_bound(&self, graph: &DataflowGraph, durations: &[f64]) -> f64 {
        let n = graph.n_calls();
        assert_eq!(durations.len(), n, "one duration per call");
        // End times of the current and the previous iteration's call nodes;
        // topological order writes every entry before this iteration reads it.
        let mut end = vec![0.0f64; n];
        let mut prev_end = vec![0.0f64; n];
        let mut longest = 0.0f64;
        for iter in 0..self.iterations {
            for &call in &self.topo {
                let mut start = 0.0f64;
                for &dep in graph.deps(call) {
                    start = start.max(end[dep.0]);
                }
                if let Some(p) = self.prev_in_iter[call.0] {
                    start = start.max(end[p.0]);
                } else if iter > 0 {
                    start = start.max(prev_end[self.model_last[call.0].0]);
                }
                let e = start + durations[call.0];
                end[call.0] = e;
                longest = longest.max(e);
            }
            std::mem::swap(&mut end, &mut prev_end);
        }
        longest / self.iterations as f64
    }

    /// Materializes the augmented node list for one plan, with assignments
    /// supplied by `assign` (so a one-call perturbation needs no plan clone),
    /// speculation choices read off `plan`, and node prices supplied by
    /// `costs`. A speculative generation call takes its spec-aware duration
    /// and also occupies the draft mesh, so Algorithm 1 serializes colocated
    /// work against the draft.
    pub fn instantiate<F>(
        &self,
        graph: &DataflowGraph,
        plan: &ExecutionPlan,
        assign: F,
        costs: &mut dyn NodeCosts,
    ) -> Vec<AugNode>
    where
        F: Fn(CallId) -> CallAssignment,
    {
        let n = graph.n_calls();
        let mut nodes: Vec<AugNode> = Vec::with_capacity(self.iterations * n * 2);
        // call_node[iter][call] = node index.
        let mut call_node = vec![vec![usize::MAX; n]; self.iterations];

        for iter in 0..self.iterations {
            for &call in &self.topo {
                let def = graph.call(call);
                let a = assign(call);
                let mut parents: Vec<usize> = Vec::new();

                // Data dependencies (+ transfer nodes when layouts differ).
                for &dep in graph.deps(call) {
                    let dep_node = call_node[iter][dep.0];
                    debug_assert_ne!(dep_node, usize::MAX, "topo order places deps first");
                    let cost = costs.transfer(dep, &assign(dep), &a);
                    if cost > 0.0 {
                        // Transfers occupy the consumer mesh only; the
                        // producer sends from copy engines (mirrors the
                        // runtime engine).
                        nodes.push(AugNode {
                            kind: NodeKind::Transfer {
                                from: dep,
                                to: call,
                                iter,
                            },
                            duration: cost,
                            meshes: vec![a.mesh],
                            parents: vec![dep_node],
                        });
                        parents.push(nodes.len() - 1);
                    } else {
                        parents.push(dep_node);
                    }
                }

                // Parameter availability: the model's previous call in this
                // iteration, or (for the first call of the iteration) its
                // parameter-version parents in the previous iteration.
                let prev: Option<(usize, CallId)> = if let Some(p) = self.prev_in_iter[call.0] {
                    Some((iter, p))
                } else if iter > 0 {
                    // Wrap around: last call of the model in the previous
                    // iteration (captures the parameter-version edge when it
                    // is a training call, and the layout chain otherwise).
                    Some((iter - 1, self.model_last[call.0]))
                } else {
                    None
                };
                if let Some((piter, pcall)) = prev {
                    let pnode = call_node[piter][pcall.0];
                    debug_assert_ne!(pnode, usize::MAX);
                    let pa = assign(pcall);
                    let cost = costs.realloc(call, &pa, &a);
                    if cost > 0.0 {
                        nodes.push(AugNode {
                            kind: NodeKind::Realloc {
                                model: def.model_name.clone(),
                                iter,
                            },
                            duration: cost,
                            meshes: vec![pa.mesh, a.mesh],
                            parents: vec![pnode],
                        });
                        parents.push(nodes.len() - 1);
                    } else {
                        parents.push(pnode);
                    }
                }

                parents.sort_unstable();
                parents.dedup();
                let duration = costs.call_node(plan, call, &a);
                let mut meshes = vec![a.mesh];
                if let Some(choice) = plan.spec_choice(call) {
                    meshes.push(choice.assignment.mesh);
                }
                nodes.push(AugNode {
                    kind: NodeKind::Call { call, iter },
                    duration,
                    meshes,
                    parents,
                });
                call_node[iter][call.0] = nodes.len() - 1;
            }
        }
        nodes
    }
}

/// Builds the augmented node list for `iterations` unrolled iterations.
///
/// Node order: for each iteration, every call preceded by its transfer and
/// reallocation nodes. Parameter-version edges connect a model's training
/// call in iteration `t` to its calls in iteration `t+1` (through the
/// reallocation node when layouts differ).
///
/// Equivalent to [`Template::new`] + [`Template::instantiate`] with the
/// estimator as its own [`NodeCosts`]; callers pricing many plans against
/// one graph should build the template once instead.
pub fn build(
    graph: &DataflowGraph,
    plan: &ExecutionPlan,
    est: &Estimator,
    iterations: usize,
) -> Vec<AugNode> {
    let mut costs = est;
    Template::new(graph, iterations).instantiate(graph, plan, |id| *plan.assignment(id), &mut costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::ClusterSpec;
    use real_dataflow::{algo, CallAssignment};
    use real_model::{ModelSpec, ParallelStrategy};
    use real_profiler::{ProfileConfig, Profiler};

    fn setup() -> (ClusterSpec, DataflowGraph, Estimator) {
        let cluster = ClusterSpec::h100(2);
        let actor = ModelSpec::llama3_7b();
        let critic = actor.critic();
        let graph = algo::ppo(&actor, &critic, &algo::RlhfConfig::instruct_gpt(64));
        let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 5);
        let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
        let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
        (cluster, graph, est)
    }

    fn symmetric(cluster: &ClusterSpec, graph: &DataflowGraph) -> ExecutionPlan {
        let a = CallAssignment::new(
            DeviceMesh::full(cluster),
            ParallelStrategy::new(2, 8, 1, 4).unwrap(),
        )
        .unwrap();
        ExecutionPlan::new(graph, cluster, vec![a; graph.n_calls()]).unwrap()
    }

    #[test]
    fn symmetric_plan_has_no_realloc_or_transfer_nodes() {
        let (cluster, graph, est) = setup();
        let plan = symmetric(&cluster, &graph);
        let nodes = build(&graph, &plan, &est, 1);
        assert_eq!(nodes.len(), graph.n_calls());
        assert!(nodes
            .iter()
            .all(|n| matches!(n.kind, NodeKind::Call { .. })));
    }

    #[test]
    fn asymmetric_plan_adds_realloc_nodes() {
        let (cluster, graph, est) = setup();
        let mut plan = symmetric(&cluster, &graph);
        // Move actor training to a different strategy on the same mesh.
        let train = graph.find("actor_train").unwrap();
        let new = CallAssignment::new(
            DeviceMesh::full(&cluster),
            ParallelStrategy::new(1, 8, 2, 8).unwrap(),
        )
        .unwrap();
        plan = plan.with_assignment(train, new).unwrap();
        let nodes = build(&graph, &plan, &est, 1);
        let reallocs = nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Realloc { .. }))
            .count();
        assert!(reallocs >= 1, "expected a realloc before actor_train");
    }

    #[test]
    fn unrolling_two_iterations_doubles_call_nodes() {
        let (cluster, graph, est) = setup();
        let plan = symmetric(&cluster, &graph);
        let nodes = build(&graph, &plan, &est, 2);
        let calls = nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Call { .. }))
            .count();
        assert_eq!(calls, 2 * graph.n_calls());
        // Second-iteration generation depends (transitively) on
        // first-iteration actor training.
        let gen2 = nodes
            .iter()
            .position(|n| {
                matches!(n.kind, NodeKind::Call { call, iter: 1 }
                if call == graph.find("actor_gen").unwrap())
            })
            .unwrap();
        assert!(!nodes[gen2].parents.is_empty());
    }

    #[test]
    fn realloc_cost_zero_for_identical_layouts() {
        let (cluster, _, est) = setup();
        let a = CallAssignment::new(
            DeviceMesh::full(&cluster),
            ParallelStrategy::new(2, 8, 1, 4).unwrap(),
        )
        .unwrap();
        assert_eq!(realloc_cost(&est, &ModelSpec::llama3_7b(), &a, &a), 0.0);
    }

    #[test]
    fn realloc_cost_positive_for_layout_change() {
        let (cluster, _, est) = setup();
        let a = CallAssignment::new(
            DeviceMesh::full(&cluster),
            ParallelStrategy::new(2, 8, 1, 4).unwrap(),
        )
        .unwrap();
        let b = CallAssignment::new(
            DeviceMesh::full(&cluster),
            ParallelStrategy::new(1, 8, 2, 4).unwrap(),
        )
        .unwrap();
        let c = realloc_cost(&est, &ModelSpec::llama3_7b(), &a, &b);
        assert!(c > 0.0);
        // Moving a 7B shard over the fabric: milliseconds-to-seconds scale,
        // far below a full generation call.
        assert!(c < 5.0, "realloc {c}");
    }

    #[test]
    fn critical_path_bound_covers_every_model_chain_and_stays_below_time_cost() {
        let (cluster, graph, est) = setup();
        let plan = symmetric(&cluster, &graph);
        let durations: Vec<f64> = (0..graph.n_calls())
            .map(|c| est.call_duration(CallId(c), plan.assignment(CallId(c))))
            .collect();
        for iterations in 1..=3 {
            let est = est.clone().with_iterations(iterations);
            let bound = Template::new(&graph, iterations).critical_path_bound(&graph, &durations);
            assert!(bound <= est.time_cost(&plan), "{iterations} iterations");
            // Calls of one model serialize, so the bound is at least the
            // per-iteration sum of any model's call durations.
            for model in graph.model_names() {
                let chain: f64 = graph
                    .calls_of_model(model)
                    .iter()
                    .map(|c| durations[c.0])
                    .sum();
                assert!(bound >= chain * (1.0 - 1e-12), "{model}: {bound} < {chain}");
            }
        }
    }

    #[test]
    fn parents_reference_earlier_nodes_only() {
        let (cluster, graph, est) = setup();
        let plan = symmetric(&cluster, &graph);
        let nodes = build(&graph, &plan, &est, 3);
        for (i, n) in nodes.iter().enumerate() {
            for &p in &n.parents {
                assert!(p < i, "node {i} has forward parent {p}");
            }
        }
    }
}
