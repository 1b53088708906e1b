//! Construction of the augmented dataflow graph `G_p` (§4, Fig. 5): the
//! per-iteration call nodes plus parameter-reallocation and data-transfer
//! nodes, unrolled over a fixed number of iterations.
//!
//! The graph is flat ([`AugGraph`]): per node a kind, a duration and one or
//! two ids into a table of the plan's distinct device meshes, with every
//! node's parents in one CSR list. [`Template::instantiate`] refills a
//! caller-owned `AugGraph`, so re-pricing a plan reuses its buffers.

use crate::Estimator;
use real_cluster::DeviceMesh;
use real_dataflow::{CallAssignment, CallId, DataflowGraph, ExecutionPlan, SpecChoice};
use real_model::{MemoryModel, ParallelStrategy};

/// What an augmented node does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A model function call.
    Call,
    /// Moving a model's parameters from one layout to another.
    Realloc,
    /// Moving output data between producer and consumer meshes.
    Transfer,
}

impl NodeKind {
    /// Short label for the kind, used as the `kind` metric label.
    pub fn label(self) -> &'static str {
        match self {
            NodeKind::Call => "call",
            NodeKind::Realloc => "realloc",
            NodeKind::Transfer => "transfer",
        }
    }
}

/// Mesh id standing for a node's absent second mesh.
const NO_MESH: u32 = u32::MAX;

/// Node id standing for an unrolled call not placed yet.
const NO_NODE: u32 = u32::MAX;

/// The augmented graph, ready for Algorithm 1, in flat arrays.
///
/// Node `i` has a [`NodeKind`], a duration in seconds, one or two device
/// meshes (one for calls and transfers, source + destination for
/// reallocations, target + draft for speculative generation calls) stored
/// as ids into the graph's table of distinct meshes, and parents that all
/// precede it. [`Template::instantiate`] refills the graph in place,
/// keeping every buffer's capacity.
#[derive(Debug, Clone)]
pub struct AugGraph {
    nodes: Vec<Node>,
    /// CSR offsets: node `i`'s parents are
    /// `parents[parent_start[i]..parent_start[i + 1]]`.
    parent_start: Vec<u32>,
    parents: Vec<u32>,
    /// The distinct meshes, indexed by mesh id.
    meshes: Vec<DeviceMesh>,
    /// Instantiation scratch: per call its assignment and mesh id, per
    /// unrolled call its node, and the parents of the call node being built.
    assigns: Vec<CallAssignment>,
    call_mesh: Vec<u32>,
    call_node: Vec<u32>,
    gathered: Vec<u32>,
    /// Per mesh id, the latest call node placed on it (async templates).
    last_call: Vec<u32>,
    /// The plan's prices, looked up once and read by every unrolled
    /// iteration: per call its node duration and the reallocation cost of
    /// its parameter edge, and per data dependency (calls in topological
    /// order, each call's dependencies in order) its transfer cost.
    call_duration: Vec<f64>,
    param_cost: Vec<f64>,
    dep_cost: Vec<f64>,
}

/// One node of an [`AugGraph`]; its second mesh id is [`NO_MESH`] when it
/// occupies one mesh.
#[derive(Debug, Clone, Copy)]
struct Node {
    kind: NodeKind,
    duration: f64,
    meshes: [u32; 2],
}

impl Default for AugGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl AugGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            parent_start: vec![0],
            parents: Vec::new(),
            meshes: Vec::new(),
            assigns: Vec::new(),
            call_mesh: Vec::new(),
            call_node: Vec::new(),
            gathered: Vec::new(),
            last_call: Vec::new(),
            call_duration: Vec::new(),
            param_cost: Vec::new(),
            dep_cost: Vec::new(),
        }
    }

    /// Removes every node and mesh, keeping the buffers' capacity.
    fn clear(&mut self) {
        self.nodes.clear();
        self.parent_start.truncate(1);
        self.parents.clear();
        self.meshes.clear();
        self.assigns.clear();
        self.call_mesh.clear();
        self.call_node.clear();
        self.last_call.clear();
        self.call_duration.clear();
        self.param_cost.clear();
        self.dep_cost.clear();
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node `i`'s role.
    pub fn kind(&self, i: usize) -> NodeKind {
        self.nodes[i].kind
    }

    /// Node `i`'s estimated duration in seconds.
    pub fn duration(&self, i: usize) -> f64 {
        self.nodes[i].duration
    }

    /// Ids of the one or two distinct meshes node `i` occupies.
    pub fn node_meshes(&self, i: usize) -> &[u32] {
        let ids = &self.nodes[i].meshes;
        if ids[1] == NO_MESH {
            &ids[..1]
        } else {
            ids
        }
    }

    /// Node `i`'s parents, ascending and without duplicates.
    pub fn parents(&self, i: usize) -> &[u32] {
        &self.parents[self.parent_start[i] as usize..self.parent_start[i + 1] as usize]
    }

    /// The graph's distinct meshes, indexed by mesh id.
    pub fn meshes(&self) -> &[DeviceMesh] {
        &self.meshes
    }

    /// The id of `mesh`, added to the mesh table if new. A plan has at most
    /// a few dozen distinct meshes, so a linear scan beats hashing.
    fn intern(&mut self, mesh: DeviceMesh) -> u32 {
        match self.meshes.iter().position(|m| *m == mesh) {
            Some(id) => id as u32,
            None => {
                self.meshes.push(mesh);
                (self.meshes.len() - 1) as u32
            }
        }
    }

    /// Appends a node on one or two meshes whose parents are `parents`
    /// (sorted and deduplicated here), returning its index.
    ///
    /// # Panics
    ///
    /// Panics unless `meshes` holds one or two meshes and every parent
    /// precedes the new node (augmented nodes must be topologically
    /// ordered).
    #[cfg(test)]
    pub(crate) fn push(
        &mut self,
        kind: NodeKind,
        duration: f64,
        meshes: &[DeviceMesh],
        parents: &[usize],
    ) -> usize {
        assert!(
            matches!(meshes.len(), 1 | 2),
            "a node occupies one or two meshes"
        );
        let i = self.len();
        let first = self.intern(meshes[0]);
        let second = meshes.get(1).map_or(NO_MESH, |&m| self.intern(m));
        self.gathered.clear();
        for &p in parents {
            assert!(p < i, "augmented nodes must be topologically ordered");
            self.gathered.push(p as u32);
        }
        self.push_gathered(kind, duration, [first, second]) as usize
    }

    /// Appends a call node on `meshes` whose parents are the gathered list,
    /// plus, `in_order`, the latest call node on every mesh overlapping one
    /// of its own.
    fn push_call(&mut self, duration: f64, meshes: [u32; 2], in_order: bool) -> u32 {
        let own = meshes.into_iter().filter(|&m| m != NO_MESH);
        if in_order {
            self.last_call.resize(self.meshes.len(), NO_NODE);
            for (m, &last) in self.last_call.iter().enumerate() {
                let mesh = &self.meshes[m];
                if last != NO_NODE && own.clone().any(|o| self.meshes[o as usize].overlaps(mesh)) {
                    self.gathered.push(last);
                }
            }
        }
        let node = self.push_gathered(NodeKind::Call, duration, meshes);
        if in_order {
            own.for_each(|m| self.last_call[m as usize] = node);
        }
        node
    }

    /// Appends a node whose parents are the gathered list, sorted and
    /// deduplicated first.
    fn push_gathered(&mut self, kind: NodeKind, duration: f64, meshes: [u32; 2]) -> u32 {
        self.gathered.sort_unstable();
        self.gathered.dedup();
        self.parents.extend_from_slice(&self.gathered);
        self.push_node(kind, duration, meshes)
    }

    /// Appends a node whose parents were just appended to `parents`.
    fn push_node(&mut self, kind: NodeKind, duration: f64, [first, second]: [u32; 2]) -> u32 {
        let second = if second == first { NO_MESH } else { second };
        self.nodes.push(Node {
            kind,
            duration,
            meshes: [first, second],
        });
        self.parent_start.push(self.parents.len() as u32);
        (self.nodes.len() - 1) as u32
    }
}

/// Estimated cost of reallocating a model's BF16 weights from the source
/// assignment to the destination assignment, where `shard_bytes` gives the
/// destination strategy's per-GPU weight bytes (asked for only when the
/// layouts differ).
///
/// Per §5.1 the estimator "approximates the time with the data size and the
/// bandwidth": every destination GPU must receive its destination shard; the
/// broadcasts run in parallel, so the cost is the per-destination shard over
/// the slowest link involved, plus a latency per pipeline-stage pair.
pub fn realloc_cost(
    est: &Estimator,
    src: &CallAssignment,
    dst: &CallAssignment,
    shard_bytes: impl FnOnce() -> u64,
) -> f64 {
    if src == dst {
        return 0.0;
    }
    let shard_bytes = shard_bytes() as f64;
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
    from: CallId,
    a: &CallAssignment,
    b: &CallAssignment,
) -> f64 {
    if a == b {
        return 0.0;
    }
    let bytes = est.graph().call(from).call_type.total_tokens() as f64 * 8.0;
    let within = a.mesh.n_nodes() == 1
        && b.mesh.n_nodes() == 1
        && a.mesh.node_start() == b.mesh.node_start();
    // Split across DP producers broadcasting in parallel.
    let per_src = bytes / f64::from(a.strategy.dp());
    est.comm().broadcast(per_src, 2, within)
}

/// Call-cost oracle for [`Template::instantiate`].
///
/// The template fixes the *structure* of the augmented graph; an
/// implementation of this trait supplies the call durations and the
/// reallocation payloads, while the edge prices themselves
/// ([`realloc_cost`], [`transfer_cost_between`]) are a few flops and are
/// computed on every instantiation. The direct implementation (on
/// `&Estimator`) calls the estimator's pricing functions; the memoized one
/// ([`crate::memo::CostMemo`] via [`crate::PlanPricer`]) consults its cache
/// first. Both must return bit-identical values for the two paths to
/// produce bit-identical makespans.
pub trait NodeCosts {
    /// Duration of `call` under assignment `a` (seconds).
    fn duration(&mut self, call: CallId, a: &CallAssignment) -> f64;
    /// Duration of generation call `call` under `a`, decoding speculatively
    /// under `choice` (seconds).
    fn spec_duration(&mut self, call: CallId, a: &CallAssignment, choice: &SpecChoice) -> f64;
    /// Per-GPU BF16 weight bytes of `call`'s model under `s`: the payload a
    /// reallocation to `s` moves.
    fn weight_bytes(&mut self, call: CallId, s: &ParallelStrategy) -> u64;

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

    fn spec_duration(&mut self, call: CallId, a: &CallAssignment, choice: &SpecChoice) -> f64 {
        self.spec_call_duration(call, a, choice)
    }

    fn weight_bytes(&mut self, call: CallId, s: &ParallelStrategy) -> u64 {
        MemoryModel::new(self.graph().call(call).model.clone()).weight_bytes_per_gpu(s)
    }
}

/// The plan-independent structure of the augmented graph: topological order
/// plus each call's parameter-version edge, precomputed once per (graph,
/// iterations, staleness) triple.
///
/// [`build`] recomputed this structure on every invocation — including a
/// quadratic "which model call precedes me" scan — which the MCMC search
/// paid per proposal. A `Template` hoists all of it out of the hot loop:
/// [`Template::instantiate`] only walks the precomputed edges and asks a
/// [`NodeCosts`] oracle for edge prices, so re-pricing a plan does no graph
/// analysis at all.
#[derive(Debug, Clone)]
pub struct Template {
    iterations: usize,
    topo: Vec<CallId>,
    /// Per call: the call whose parameters it waits for, and how many
    /// iterations back (see [`Template::new`]); `None` for no edge at all.
    param_edge: Vec<Option<ParamEdge>>,
    /// Whether each call also waits for the calls dispatched before it on
    /// its GPUs (async templates, see [`Template::instantiate`]).
    in_order: bool,
}

/// A call's parameter-version edge in the unrolled graph.
#[derive(Debug, Clone, Copy)]
struct ParamEdge {
    /// The source call.
    src: CallId,
    /// How many iterations before the call's own the source ran: 0 within
    /// the iteration, 1 for the wrap-around, `s + 1` for a snapshot.
    back: usize,
    /// Whether the edge is an async snapshot, shipped copy-engine style.
    snapshot: bool,
}

impl Template {
    /// Precomputes the augmented-graph structure `est` prices: its graph
    /// unrolled over its iteration count, under its staleness bound.
    ///
    /// Synchronously every call waits for its model's previous call in the
    /// iteration, and a model's first call for the model's last call of the
    /// previous iteration. Under staleness `s`, each call relaxed by
    /// [`DataflowGraph::snapshot_sources`] instead waits for its snapshot
    /// source `s + 1` iterations back (no edge while warming up), and the
    /// other calls chain over the model's non-relaxed calls only, as the
    /// runtime's async master does.
    pub fn new(est: &Estimator) -> Self {
        let (graph, staleness) = (est.graph(), est.staleness());
        let topo = graph.topo_order().expect("validated graphs are acyclic");
        let n = graph.n_calls();
        let sources = staleness.map_or_else(|| vec![None; n], |_| graph.snapshot_sources());
        let edge = |src, back, snapshot| {
            Some(ParamEdge {
                src,
                back,
                snapshot,
            })
        };
        let mut param_edge = vec![None; n];
        for model_name in graph.model_names() {
            let chain: Vec<CallId> = topo
                .iter()
                .filter(|c| graph.call(**c).model_name == model_name && sources[c.0].is_none())
                .copied()
                .collect();
            let last = *chain.last().expect("models have a non-relaxed call");
            for (pos, &call) in chain.iter().enumerate() {
                param_edge[call.0] = match pos {
                    0 => edge(last, 1, false),
                    _ => edge(chain[pos - 1], 0, false),
                };
            }
        }
        for (call, src) in sources.into_iter().enumerate() {
            if let (Some(src), Some(s)) = (src, staleness) {
                param_edge[call] = edge(src, s as usize + 1, true);
            }
        }
        Self {
            iterations: est.iterations(),
            topo,
            param_edge,
            in_order: staleness.is_some(),
        }
    }

    /// Number of unrolled iterations the template was built for.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// `call`'s parameter-version edge in unrolled iteration `iter`, with
    /// its parent as an index `iteration * n_calls + call` into
    /// iteration-major per-call tables; `None` when the call has no edge in
    /// that iteration.
    fn param_parent(&self, call: CallId, iter: usize) -> Option<(usize, ParamEdge)> {
        let e = self.param_edge[call.0]?;
        (iter >= e.back).then(|| ((iter - e.back) * self.param_edge.len() + e.src.0, e))
    }

    /// A lower bound on `TimeCost` that reads only call durations
    /// (`durations[call]`, the value the call node takes in
    /// [`Template::instantiate`]): the longest path through the unrolled
    /// call nodes over the edges `instantiate` wires — data dependencies
    /// and the parameter-version edges of [`Template::new`] — divided by
    /// the iteration count.
    ///
    /// The bound is exact in floating point, with no epsilon: Algorithm 1
    /// starts every node no earlier than each parent's end, the transfer and
    /// reallocation nodes and the async in-order edges this path skips only
    /// delay nodes, and `fl(x + d)` and `fl(x / K)` are monotone in `x`. So
    /// it never exceeds the makespan-derived `TimeCost` of the same
    /// durations, nor the §5.2 cost (the OOM penalty is ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics unless `durations` has one entry per call of `graph`.
    pub fn critical_path_bound(&self, graph: &DataflowGraph, durations: &[f64]) -> f64 {
        self.critical_path_bound_in(graph, durations, &mut Vec::new())
    }

    /// [`Template::critical_path_bound`] with its end-time buffer in
    /// `ends`, so repeated bounds reuse one allocation.
    pub(crate) fn critical_path_bound_in(
        &self,
        graph: &DataflowGraph,
        durations: &[f64],
        ends: &mut Vec<f64>,
    ) -> f64 {
        let n = graph.n_calls();
        assert_eq!(durations.len(), n, "one duration per call");
        // End times of every unrolled call node, iteration-major;
        // topological order writes every entry before an edge reads it.
        ends.clear();
        ends.resize(self.iterations * n, 0.0);
        let mut longest = 0.0f64;
        for iter in 0..self.iterations {
            let base = iter * n;
            for &call in &self.topo {
                let mut start = 0.0f64;
                for &dep in graph.deps(call) {
                    start = start.max(ends[base + dep.0]);
                }
                if let Some((p, _)) = self.param_parent(call, iter) {
                    start = start.max(ends[p]);
                }
                let e = start + durations[call.0];
                ends[base + call.0] = e;
                longest = longest.max(e);
            }
        }
        longest / self.iterations as f64
    }

    /// Fills `out` with the augmented graph of one plan, with assignments
    /// supplied by `assign` (so a one-call perturbation needs no plan
    /// clone), speculation choices read off `plan`, and node prices
    /// supplied by `costs`. A speculative generation call takes its
    /// spec-aware duration and also occupies the draft mesh, so Algorithm 1
    /// serializes colocated work against the draft.
    ///
    /// Node order: for each iteration, every call in topological order,
    /// preceded by its transfer and reallocation nodes. Each call's
    /// parameter-version edge ([`Template::new`]) goes through a
    /// reallocation node when the layouts differ; a snapshot's node, like a
    /// transfer, occupies the consumer mesh only. Zero-cost transfers and
    /// reallocations add no node.
    ///
    /// Under staleness a relaxed call is ready iterations early, and
    /// Algorithm 1 would start it ahead of calls dispatched before it on
    /// its GPUs, which the runtime's in-order per-GPU queues never do. So
    /// an async template also makes each call wait for the latest earlier
    /// call on every mesh its own meshes overlap.
    ///
    /// Every price depends on the plan alone, not on the iteration, so each
    /// call duration, data dependency and parameter edge that some unrolled
    /// iteration uses is priced once, and the unrolled iterations reuse the
    /// answers.
    pub fn instantiate<F>(
        &self,
        est: &Estimator,
        plan: &ExecutionPlan,
        assign: F,
        costs: &mut dyn NodeCosts,
        out: &mut AugGraph,
    ) where
        F: Fn(CallId) -> CallAssignment,
    {
        let graph = est.graph();
        let n = graph.n_calls();
        out.clear();
        for call in 0..n {
            let a = assign(CallId(call));
            let mesh = out.intern(a.mesh);
            out.assigns.push(a);
            out.call_mesh.push(mesh);
        }
        for call in (0..n).map(CallId) {
            let a = out.assigns[call.0];
            out.call_duration.push(costs.call_node(plan, call, &a));
            let cost = match self.param_edge[call.0] {
                Some(e) if e.back < self.iterations => {
                    let shard_bytes = || costs.weight_bytes(call, &a.strategy);
                    realloc_cost(est, &out.assigns[e.src.0], &a, shard_bytes)
                }
                _ => 0.0,
            };
            out.param_cost.push(cost);
        }
        for &call in &self.topo {
            let a = out.assigns[call.0];
            for &dep in graph.deps(call) {
                let cost = transfer_cost_between(est, dep, &out.assigns[dep.0], &a);
                out.dep_cost.push(cost);
            }
        }
        // call_node[iter * n + call] = node index.
        out.call_node.resize(self.iterations * n, NO_NODE);

        for iter in 0..self.iterations {
            let mut dep_edge = 0;
            for &call in &self.topo {
                let mesh = out.call_mesh[call.0];
                out.gathered.clear();

                // Data dependencies (+ transfer nodes when layouts differ).
                for &dep in graph.deps(call) {
                    let dep_node = out.call_node[iter * n + dep.0];
                    debug_assert_ne!(dep_node, NO_NODE, "topo order places deps first");
                    let cost = out.dep_cost[dep_edge];
                    dep_edge += 1;
                    let parent = if cost > 0.0 {
                        // Transfers occupy the consumer mesh only; the
                        // producer sends from copy engines (mirrors the
                        // runtime engine).
                        out.parents.push(dep_node);
                        out.push_node(NodeKind::Transfer, cost, [mesh, NO_MESH])
                    } else {
                        dep_node
                    };
                    out.gathered.push(parent);
                }

                // Parameter availability (+ a reallocation node when
                // layouts differ).
                if let Some((p, edge)) = self.param_parent(call, iter) {
                    let pnode = out.call_node[p];
                    debug_assert_ne!(pnode, NO_NODE);
                    let cost = out.param_cost[call.0];
                    let parent = if cost > 0.0 {
                        let meshes = if edge.snapshot {
                            [mesh, NO_MESH]
                        } else {
                            [out.call_mesh[edge.src.0], mesh]
                        };
                        out.parents.push(pnode);
                        out.push_node(NodeKind::Realloc, cost, meshes)
                    } else {
                        pnode
                    };
                    out.gathered.push(parent);
                }

                let duration = out.call_duration[call.0];
                let draft = match plan.spec_choice(call) {
                    Some(choice) => out.intern(choice.assignment.mesh),
                    None => NO_MESH,
                };
                let node = out.push_call(duration, [mesh, draft], self.in_order);
                out.call_node[iter * n + call.0] = node;
            }
        }
    }
}

/// Builds the augmented graph `est` prices for `plan` (see
/// [`Template::instantiate`] for the node order).
///
/// Equivalent to [`Template::new`] + [`Template::instantiate`] with the
/// estimator as its own [`NodeCosts`]; callers pricing many plans against
/// one graph should build the template and the [`AugGraph`] once instead.
pub fn build(plan: &ExecutionPlan, est: &Estimator) -> AugGraph {
    let mut out = AugGraph::new();
    let assign = |id| *plan.assignment(id);
    Template::new(est).instantiate(est, plan, assign, &mut { est }, &mut out);
    out
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
        let g = build(&plan, &est.clone().with_iterations(1));
        assert_eq!(g.len(), graph.n_calls());
        assert!((0..g.len()).all(|i| g.kind(i) == NodeKind::Call));
        assert_eq!(g.meshes().len(), 1, "every call shares one mesh");
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
        let g = build(&plan, &est.clone().with_iterations(1));
        let reallocs = (0..g.len())
            .filter(|&i| g.kind(i) == NodeKind::Realloc)
            .count();
        assert!(reallocs >= 1, "expected a realloc before actor_train");
    }

    #[test]
    fn nodes_occupy_distinct_mesh_ids() {
        let (cluster, graph, est) = setup();
        // Actor training re-sharded on the same mesh: its reallocation's
        // source and destination meshes collapse to one id.
        let train = graph.find("actor_train").unwrap();
        let resharded = CallAssignment::new(
            DeviceMesh::full(&cluster),
            ParallelStrategy::new(1, 8, 2, 8).unwrap(),
        )
        .unwrap();
        let plan = symmetric(&cluster, &graph)
            .with_assignment(train, resharded)
            .unwrap();
        // A speculative generation call also occupies its draft mesh.
        let gen = graph.find("actor_gen").unwrap();
        let draft = DeviceMesh::sub_node(&cluster, 1, 0, 2).unwrap();
        let choice = SpecChoice {
            config: real_model::SpecDecodeConfig {
                draft_model: ModelSpec::llama3_1b(),
                speculation_len: 4,
                acceptance_curve: real_model::AcceptanceCurve::Constant(0.8),
            },
            assignment: CallAssignment::new(draft, ParallelStrategy::new(1, 2, 1, 1).unwrap())
                .unwrap(),
        };
        let plan = plan.with_spec(gen, Some(choice)).unwrap();
        let g = build(&plan, &est.clone().with_iterations(1));
        assert_eq!(g.meshes(), &[DeviceMesh::full(&cluster), draft]);
        let first = (0..g.len()).find(|&i| g.kind(i) == NodeKind::Call).unwrap();
        assert_eq!(g.node_meshes(first), &[0, 1], "generation runs first");
        let realloc = (0..g.len())
            .find(|&i| g.kind(i) == NodeKind::Realloc)
            .unwrap();
        assert_eq!(g.node_meshes(realloc), &[0]);
    }

    #[test]
    fn unrolling_two_iterations_doubles_call_nodes() {
        let (cluster, graph, est) = setup();
        let plan = symmetric(&cluster, &graph);
        let g = build(&plan, &est);
        let calls: Vec<usize> = (0..g.len())
            .filter(|&i| g.kind(i) == NodeKind::Call)
            .collect();
        assert_eq!(calls.len(), 2 * graph.n_calls());
        // Every second-iteration call waits on the first iteration: its
        // data dependencies or its model's previous (wrap-around) call.
        for &i in &calls[graph.n_calls()..] {
            assert!(!g.parents(i).is_empty(), "node {i} has no parent");
        }
    }

    #[test]
    fn realloc_cost_zero_for_identical_layouts() {
        let (cluster, _, est) = setup();
        let a = CallAssignment::new(
            DeviceMesh::full(&cluster),
            ParallelStrategy::new(2, 8, 1, 4).unwrap(),
        )
        .unwrap();
        let never = || unreachable!("identical layouts move no weights");
        assert_eq!(realloc_cost(&est, &a, &a, never), 0.0);
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
        let shard = || MemoryModel::new(ModelSpec::llama3_7b()).weight_bytes_per_gpu(&b.strategy);
        let c = realloc_cost(&est, &a, &b, shard);
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
            let bound = Template::new(&est).critical_path_bound(&graph, &durations);
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
    fn async_template_relaxes_generation_to_a_snapshot() {
        let (cluster, graph, est) = setup();
        // Generation alone on node 0, every other call on node 1.
        let gen = graph.find("actor_gen").unwrap();
        let on_node = |node| {
            let mesh = DeviceMesh::whole_nodes(&cluster, node, 1).unwrap();
            CallAssignment::new(mesh, ParallelStrategy::new(1, 8, 1, 4).unwrap()).unwrap()
        };
        let assignments = (0..graph.n_calls())
            .map(|c| on_node(u32::from(c != gen.0)))
            .collect();
        let plan = ExecutionPlan::new(&graph, &cluster, assignments).unwrap();
        let est = est.clone().with_staleness(1);
        assert_eq!(est.iterations(), 3, "s + 2 iterations unrolled");
        let g = build(&plan, &est);
        let gen_mesh = g
            .meshes()
            .iter()
            .position(|m| *m == on_node(0).mesh)
            .unwrap() as u32;
        let on_gen = |kind| {
            (0..g.len())
                .filter(|&i| g.kind(i) == kind && g.node_meshes(i) == [gen_mesh])
                .collect::<Vec<_>>()
        };
        let gens = on_gen(NodeKind::Call);
        assert_eq!(gens.len(), 3);
        // Warm-up: generation waits only for its own earlier dispatch.
        assert!(g.parents(gens[0]).is_empty());
        assert_eq!(g.parents(gens[1]), &[gens[0] as u32]);
        // Iteration 2 samples the snapshot of iteration 0's actor_train,
        // shipped onto the generation mesh alone.
        let snapshots = on_gen(NodeKind::Realloc);
        assert_eq!(snapshots.len(), 1);
        let src = g.parents(snapshots[0]);
        assert_eq!(src.len(), 1);
        assert!((src[0] as usize) < gens[1], "the source ran in iteration 0");
        assert!(g.parents(gens[2]).contains(&(snapshots[0] as u32)));
    }

    #[test]
    fn parents_reference_earlier_nodes_only() {
        let (cluster, graph, est) = setup();
        let plan = symmetric(&cluster, &graph);
        let g = build(&plan, &est.clone().with_iterations(3));
        for i in 0..g.len() {
            for &p in g.parents(i) {
                assert!((p as usize) < i, "node {i} has forward parent {p}");
            }
        }
    }
}
