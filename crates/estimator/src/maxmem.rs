//! `MaxMem(G_p)` (§5.1): peak per-GPU memory of an execution plan.
//!
//! Following §5.1 exactly: static memory "consists of the gradients and
//! optimizer states" and lives on a trainable model's training mesh for the
//! whole experiment; *all* weights are reallocable active memory, charged —
//! together with activations, logits, and KV cache — per call on the call's
//! mesh. Calls sharing a GPU serialize, so per GPU the peak active term is
//! the max over that GPU's calls.

use real_cluster::{ClusterSpec, DeviceMesh};
use real_dataflow::{CallAssignment, CallType, DataflowGraph, ExecutionPlan, ModelFunctionCallDef};
use real_model::MemoryModel;

/// Static (gradient + optimizer-state) bytes per GPU that a trainable
/// model's training call pins on every GPU of its mesh. Pure in
/// `(def, assignment)` — the memo cache keys on exactly those.
pub(crate) fn anchor_static_bytes(def: &ModelFunctionCallDef, a: &CallAssignment) -> u64 {
    MemoryModel::new(def.model.clone()).static_optim_bytes(&a.strategy)
}

/// Active bytes one call charges on every GPU of its mesh while running:
/// weights, activations, logits and KV cache per §5.1. Pure in
/// `(def, assignment)`.
pub(crate) fn call_active_bytes(def: &ModelFunctionCallDef, a: &CallAssignment) -> u64 {
    let mm = MemoryModel::new(def.model.clone());
    let dp = u64::from(a.strategy.dp());
    match def.call_type {
        CallType::Generate {
            batch,
            prompt_len,
            gen_len,
        } => mm.gen_active_bytes(&a.strategy, batch.div_ceil(dp), prompt_len + gen_len),
        CallType::Inference { batch, seq_len } => {
            mm.infer_active_bytes(&a.strategy, batch.div_ceil(dp) * seq_len)
        }
        CallType::TrainStep {
            batch,
            seq_len,
            n_minibatches,
        } => {
            let per_mini = batch.div_ceil(dp).div_ceil(u64::from(n_minibatches.max(1)));
            mm.train_active_bytes(&a.strategy, per_mini * seq_len)
        }
    }
}

/// Calls `range(start, end)` for each of a mesh's global-GPU index ranges.
/// Every valid mesh is a union of at most `node_count` contiguous ranges
/// (one per node); a whole-width mesh collapses to a single range.
fn mesh_ranges(mesh: &DeviceMesh, mut range: impl FnMut(u64, u64)) {
    let gpn = u64::from(mesh.gpus_per_node());
    if u64::from(mesh.gpu_width()) == gpn {
        let start = u64::from(mesh.node_start()) * gpn;
        range(start, start + u64::from(mesh.n_gpus()));
        return;
    }
    for node in mesh.node_start()..mesh.node_start() + mesh.n_nodes() {
        let start = u64::from(node) * gpn + u64::from(mesh.gpu_start());
        range(start, start + u64::from(mesh.gpu_width()));
    }
}

/// Peak per-GPU bytes from per-mesh contributions, without materializing a
/// per-GPU array: static contributions sum on every GPU their mesh covers,
/// active ones max (calls sharing a GPU serialize, §5.1). Exact — an
/// interval sweep over range boundaries visits a superset of the distinct
/// per-GPU sums, so the result is bit-identical to [`max_mem`]'s
/// `O(total_gpus)` scan while costing `O(contributions²)`; at 8192 GPUs
/// that's the difference between touching tens of bytes and tens of
/// kilobytes per MCMC proposal. The buffers are kept between sweeps, so a
/// warm sweep allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct PeakSweep {
    /// `(start, end, bytes)` GPU ranges of the static contributions.
    statics: Vec<(u64, u64, u64)>,
    /// `(start, end, bytes)` GPU ranges of the active contributions.
    actives: Vec<(u64, u64, u64)>,
    /// Every range start: the elementary intervals' left ends.
    bounds: Vec<u64>,
}

impl PeakSweep {
    /// Drops every contribution.
    pub(crate) fn clear(&mut self) {
        self.statics.clear();
        self.actives.clear();
        self.bounds.clear();
    }

    /// Adds `bytes` on every GPU of `mesh`, summing with other statics.
    pub(crate) fn add_static(&mut self, mesh: &DeviceMesh, bytes: u64) {
        mesh_ranges(mesh, |s, e| {
            self.statics.push((s, e, bytes));
            self.bounds.push(s);
        });
    }

    /// Charges `bytes` on every GPU of `mesh`, maxing with other actives.
    pub(crate) fn add_active(&mut self, mesh: &DeviceMesh, bytes: u64) {
        mesh_ranges(mesh, |s, e| {
            self.actives.push((s, e, bytes));
            self.bounds.push(s);
        });
    }

    /// The peak over GPUs of static sum plus active max.
    pub(crate) fn peak(&mut self) -> u64 {
        // Elementary intervals: between consecutive boundaries the covering
        // set is constant, so probing each interval start sees every
        // distinct sum.
        self.bounds.sort_unstable();
        self.bounds.dedup();
        let mut peak = 0u64;
        for &x in &self.bounds {
            let s: u64 = self
                .statics
                .iter()
                .filter(|&&(lo, hi, _)| lo <= x && x < hi)
                .map(|&(_, _, b)| b)
                .sum();
            let a: u64 = self
                .actives
                .iter()
                .filter(|&&(lo, hi, _)| lo <= x && x < hi)
                .map(|&(_, _, b)| b)
                .max()
                .unwrap_or(0);
            peak = peak.max(s + a);
        }
        peak
    }
}

/// Per-GPU static bytes implied by the plan.
fn static_bytes_per_gpu(
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    plan: &ExecutionPlan,
) -> Vec<u64> {
    let n = cluster.total_gpus() as usize;
    let mut static_mem = vec![0u64; n];
    for model_name in graph.model_names() {
        if !graph.is_trainable(model_name) {
            // Frozen models (reference/reward) hold no gradients or
            // optimizer state; their weights are active memory charged by
            // their calls.
            continue;
        }
        let calls = graph.calls_of_model(model_name);
        let anchor = calls
            .iter()
            .copied()
            .find(|&c| graph.call(c).call_type.is_training())
            .expect("trainable models have a training call");
        let def = graph.call(anchor);
        let a = plan.assignment(anchor);
        let bytes = anchor_static_bytes(def, a);
        for gpu in a.mesh.gpus() {
            static_mem[gpu.0 as usize] += bytes;
        }
    }
    static_mem
}

/// The training call anchoring each trainable model's static memory, in
/// [`DataflowGraph::model_names`] order — the calls whose assignments the
/// fast path turns into static contributions.
pub(crate) fn static_anchors(graph: &DataflowGraph) -> Vec<real_dataflow::CallId> {
    graph
        .model_names()
        .into_iter()
        .filter(|m| graph.is_trainable(m))
        .map(|m| {
            graph
                .calls_of_model(m)
                .into_iter()
                .find(|&c| graph.call(c).call_type.is_training())
                .expect("trainable models have a training call")
        })
        .collect()
}

/// Peak bytes over all GPUs: static plus the worst single call's active
/// bytes on each GPU. Speculative generation calls additionally pin their
/// draft model's weights + KV cache on the draft mesh; drafts stay resident
/// while speculation is enabled, so those bytes *sum* with colocated
/// contributions like static memory does.
pub fn max_mem(cluster: &ClusterSpec, graph: &DataflowGraph, plan: &ExecutionPlan) -> u64 {
    let n = cluster.total_gpus() as usize;
    let mut static_mem = static_bytes_per_gpu(cluster, graph, plan);
    for (id, choice) in plan.spec_choices() {
        let bytes = crate::spec::draft_active_bytes(&graph.call(id).call_type, choice);
        for gpu in choice.assignment.mesh.gpus() {
            static_mem[gpu.0 as usize] += bytes;
        }
    }
    let mut peak_active = vec![0u64; n];

    for (id, def) in graph.iter() {
        let a = plan.assignment(id);
        let active = call_active_bytes(def, a);
        for gpu in a.mesh.gpus() {
            let slot = &mut peak_active[gpu.0 as usize];
            *slot = (*slot).max(active);
        }
    }

    static_mem
        .iter()
        .zip(&peak_active)
        .map(|(s, a)| s + a)
        .max()
        .unwrap_or(0)
}

/// Mean static-memory utilization over GPUs that hold any static memory
/// (Fig. 17 right: the paper's heuristic for spotting over-provisioning).
pub fn static_utilization(
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    plan: &ExecutionPlan,
) -> f64 {
    let static_mem = static_bytes_per_gpu(cluster, graph, plan);
    let cap = cluster.gpu.mem_capacity as f64;
    let used: Vec<f64> = static_mem.iter().map(|&b| b as f64 / cap).collect();
    let total: f64 = used.iter().sum();
    total / used.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::DeviceMesh;
    use real_dataflow::{algo, CallAssignment};
    use real_model::{ModelSpec, ParallelStrategy};
    use real_util::units::GIB;

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
    fn seven_b_ppo_fits_a_node_with_microbatching() {
        let (cluster, graph) = setup(1, 128);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let peak = max_mem(&cluster, &graph, &plan);
        assert!(peak < 80 * GIB, "peak {}", peak / GIB);
        // But it is not trivially small either: four 7B models live here.
        assert!(peak > 20 * GIB, "peak {}", peak / GIB);
    }

    #[test]
    fn unsharded_training_ooms() {
        let (cluster, graph) = setup(1, 512);
        // Pure DP: every GPU holds full actor + critic optimizer state
        // (~240 GiB) — the reason DeepSpeed-Chat needs ZeRO-3.
        let plan = symmetric(&cluster, &graph, 8, 1, 1);
        assert!(max_mem(&cluster, &graph, &plan) > 200 * GIB);
        // Sharding 8-way with micro-batching fits.
        let ok = symmetric(&cluster, &graph, 1, 8, 16);
        assert!(max_mem(&cluster, &graph, &ok) < 80 * GIB);
    }

    #[test]
    fn disjoint_meshes_split_static_memory() {
        let (cluster, graph) = setup(2, 128);
        // Everything on node 0 vs actor-family on node 0, critic-family on
        // node 1.
        let full = symmetric(&cluster, &graph, 2, 8, 8);
        let node0 = CallAssignment::new(
            DeviceMesh::whole_nodes(&cluster, 0, 1).unwrap(),
            ParallelStrategy::new(1, 8, 1, 8).unwrap(),
        )
        .unwrap();
        let node1 = CallAssignment::new(
            DeviceMesh::whole_nodes(&cluster, 1, 1).unwrap(),
            ParallelStrategy::new(1, 8, 1, 8).unwrap(),
        )
        .unwrap();
        let mut assignments = Vec::new();
        for (_, def) in graph.iter() {
            if def.model_name == "actor" || def.model_name == "reference" {
                assignments.push(node0);
            } else {
                assignments.push(node1);
            }
        }
        let split = ExecutionPlan::new(&graph, &cluster, assignments).unwrap();
        let peak_full = max_mem(&cluster, &graph, &full);
        let peak_split = max_mem(&cluster, &graph, &split);
        // DP does not shard static memory, so per-model shards are the same
        // in both plans — but the symmetric plan stacks all four models on
        // every GPU while the split plan spreads two per node. Splitting
        // therefore lowers the peak (the asymmetric-strategy memory
        // advantage that OpenRLHF-style placements exploit).
        assert!(
            peak_split < peak_full,
            "split {peak_split} full {peak_full}"
        );
    }

    #[test]
    fn static_utilization_in_unit_range_and_scales_down_with_gpus() {
        let (c1, g1) = setup(1, 128);
        let (c2, g2) = setup(2, 128);
        let p1 = symmetric(&c1, &g1, 1, 8, 8);
        let p2 = symmetric(&c2, &g2, 2, 8, 8);
        let u1 = static_utilization(&c1, &g1, &p1);
        let u2 = static_utilization(&c2, &g2, &p2);
        assert!(u1 > 0.0 && u1 < 1.0);
        assert!(u2 < u1, "doubling GPUs must cut static utilization");
    }

    #[test]
    fn only_trainable_models_hold_static_memory() {
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let static_mem = static_bytes_per_gpu(&cluster, &graph, &plan);
        // Exactly actor + critic optimizer state (§5.1: static = gradients
        // and optimizer states); frozen reference/reward contribute nothing.
        let s = ParallelStrategy::new(1, 8, 1, 8).unwrap();
        let actor = MemoryModel::new(ModelSpec::llama3_7b()).static_optim_bytes(&s);
        let critic = MemoryModel::new(ModelSpec::llama3_7b().critic()).static_optim_bytes(&s);
        assert_eq!(static_mem[0], actor + critic);
    }
}
