//! `MaxMem(G_p)` (§5.1): peak per-GPU memory of an execution plan — the
//! one memory accounting, shared by the search, the baselines and the
//! runtime engine's pre-run check.
//!
//! Following §5.1 exactly: static memory "consists of the gradients and
//! optimizer states" and lives on a trainable model's training mesh for the
//! whole experiment; *all* weights are reallocable active memory, charged —
//! together with activations, logits, and KV cache — per call on the call's
//! mesh. Calls sharing a GPU serialize, so per GPU the peak active term is
//! the max over that GPU's calls.
//!
//! Two engine modes change the rules for the models they name. Under
//! ZeRO-3 a model's weights (and, when trainable, its gradients and
//! optimizer state) shard over the whole data-parallel world as static
//! memory, and each call holds one gathered layer instead of the
//! replicated weights. Under Megatron's distributed optimizer the Adam
//! state shards over the DP group. With neither mode the accounting is the
//! search's.

use real_cluster::{ClusterSpec, DeviceMesh};
use real_dataflow::{CallId, CallType, DataflowGraph, ExecutionPlan, ModelFunctionCallDef};
use real_model::{MemoryModel, ParallelStrategy};
use std::collections::HashSet;

/// The call whose mesh pins `model`'s static memory: its training call,
/// or — for a frozen ZeRO-3 model, whose sharded weights are static — its
/// first call. `None` for a frozen model outside ZeRO-3: its weights are
/// active memory charged by its calls.
fn static_anchor(graph: &DataflowGraph, model: &str, zero3: bool) -> Option<CallId> {
    let calls = graph.calls_of_model(model);
    let training = calls
        .iter()
        .copied()
        .find(|&c| graph.call(c).call_type.is_training());
    if zero3 {
        training.or(calls.first().copied())
    } else {
        training
    }
}

/// The training call anchoring each trainable model's static memory, in
/// [`DataflowGraph::model_names`] order — the calls whose assignments the
/// fast path turns into static contributions.
pub(crate) fn static_anchors(graph: &DataflowGraph) -> Vec<CallId> {
    graph
        .model_names()
        .into_iter()
        .filter_map(|m| static_anchor(graph, m, false))
        .collect()
}

/// Static bytes per GPU that an anchor call's model pins on every GPU of
/// its mesh: gradients and optimizer state, with the Adam state sharded
/// over DP under the distributed optimizer, or everything sharded over the
/// world under ZeRO-3 (the anchor is a training call exactly when the
/// model is trainable). Pure in `(def, strategy)` and the modes — the
/// memo cache keys on exactly those.
pub(crate) fn anchor_static_bytes(
    def: &ModelFunctionCallDef,
    s: &ParallelStrategy,
    zero3: bool,
    dist_optim: bool,
) -> u64 {
    let mm = MemoryModel::new(def.model.clone());
    if zero3 {
        mm.zero3_static_bytes(s.world_size(), def.call_type.is_training())
    } else if dist_optim {
        mm.static_optim_bytes_dist(s)
    } else {
        mm.static_optim_bytes(s)
    }
}

/// Active bytes a call of type `call` charges on every GPU of its mesh
/// while it runs under `s`: weights, activations, logits and KV cache per
/// §5.1. Under ZeRO-3 the weights already sit sharded in static memory, so
/// the replicated copy is dropped and one gathered layer's working set is
/// charged instead.
pub fn call_active_bytes(
    mm: &MemoryModel,
    call: CallType,
    s: &ParallelStrategy,
    zero3: bool,
) -> u64 {
    let dp = u64::from(s.dp());
    let active = match call {
        CallType::Generate {
            batch,
            prompt_len,
            gen_len,
        } => mm.gen_active_bytes(s, batch.div_ceil(dp), prompt_len + gen_len),
        CallType::Inference { batch, seq_len } => {
            mm.infer_active_bytes(s, batch.div_ceil(dp) * seq_len)
        }
        CallType::TrainStep {
            batch,
            seq_len,
            n_minibatches,
        } => {
            let per_mini = batch.div_ceil(dp).div_ceil(u64::from(n_minibatches.max(1)));
            mm.train_active_bytes(s, per_mini * seq_len)
        }
    };
    if !zero3 {
        return active;
    }
    active
        .saturating_sub(mm.weight_bytes_per_gpu(s))
        .saturating_add(2 * mm.model().layer_params())
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

/// Per-GPU static bytes of the plan under the engine modes, without draft
/// residency.
fn static_bytes(
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    plan: &ExecutionPlan,
    zero3_models: &HashSet<String>,
    dist_optim_models: &HashSet<String>,
) -> Vec<u64> {
    let mut static_mem = vec![0u64; cluster.total_gpus() as usize];
    for model in graph.model_names() {
        let zero3 = zero3_models.contains(model);
        let Some(anchor) = static_anchor(graph, model, zero3) else {
            continue;
        };
        let a = plan.assignment(anchor);
        let dist_optim = dist_optim_models.contains(model);
        let bytes = anchor_static_bytes(graph.call(anchor), &a.strategy, zero3, dist_optim);
        for gpu in a.mesh.gpus() {
            static_mem[gpu.0 as usize] += bytes;
        }
    }
    static_mem
}

/// Per-GPU static bytes and per-call active bytes of a plan — the data
/// behind `MaxMem`, the runtime's pre-run OOM check and the per-GPU memory
/// counter tracks of its observability export.
#[derive(Debug, Clone)]
pub struct MemProfile {
    /// Bytes resident on each GPU for the whole run: static memory
    /// (gradients and optimizer state, possibly sharded) plus the weights
    /// and KV cache of speculation drafts.
    pub static_bytes: Vec<u64>,
    /// Active bytes each call (indexed by `CallId.0`) charges on every GPU
    /// of its mesh while it runs.
    pub call_active: Vec<u64>,
    /// Worst single-call active bytes per GPU (calls sharing a GPU
    /// serialize, so the per-GPU peak is a max, not a sum).
    pub peak_active: Vec<u64>,
}

impl MemProfile {
    /// Peak bytes over all GPUs: static plus the worst call's active bytes.
    pub fn peak(&self) -> u64 {
        self.static_bytes
            .iter()
            .zip(&self.peak_active)
            .map(|(s, a)| s + a)
            .max()
            .unwrap_or(0)
    }
}

/// The plan's [`MemProfile`] with the models in `zero3_models` under
/// ZeRO-3 and those in `dist_optim_models` under the distributed optimizer.
/// Speculative generation calls additionally pin their draft model's
/// weights + KV cache on the draft mesh; drafts stay resident while
/// speculation is enabled, so those bytes *sum* with colocated
/// contributions like static memory does.
pub fn mem_profile(
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    plan: &ExecutionPlan,
    zero3_models: &HashSet<String>,
    dist_optim_models: &HashSet<String>,
) -> MemProfile {
    let mut static_mem = static_bytes(cluster, graph, plan, zero3_models, dist_optim_models);
    for (id, choice) in plan.spec_choices() {
        let bytes = crate::spec::draft_active_bytes(&graph.call(id).call_type, choice);
        for gpu in choice.assignment.mesh.gpus() {
            static_mem[gpu.0 as usize] += bytes;
        }
    }
    let call_active: Vec<u64> = graph
        .iter()
        .map(|(id, def)| {
            let mm = MemoryModel::new(def.model.clone());
            let zero3 = zero3_models.contains(&def.model_name);
            call_active_bytes(&mm, def.call_type, &plan.assignment(id).strategy, zero3)
        })
        .collect();
    let mut peak_active = vec![0u64; static_mem.len()];
    for (id, &active) in call_active.iter().enumerate() {
        for gpu in plan.assignment(CallId(id)).mesh.gpus() {
            let slot = &mut peak_active[gpu.0 as usize];
            *slot = (*slot).max(active);
        }
    }
    MemProfile {
        static_bytes: static_mem,
        call_active,
        peak_active,
    }
}

/// Peak bytes over all GPUs under the plain §5.1 accounting: static plus
/// the worst single call's active bytes on each GPU, with speculation
/// drafts resident (see [`mem_profile`]).
pub fn max_mem(cluster: &ClusterSpec, graph: &DataflowGraph, plan: &ExecutionPlan) -> u64 {
    mem_profile(cluster, graph, plan, &HashSet::new(), &HashSet::new()).peak()
}

/// Mean static-memory utilization over GPUs under the plain §5.1
/// accounting (Fig. 17 right: the paper's heuristic for spotting
/// over-provisioning).
pub fn static_utilization(
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    plan: &ExecutionPlan,
) -> f64 {
    let static_mem = static_bytes(cluster, graph, plan, &HashSet::new(), &HashSet::new());
    let cap = cluster.gpu.mem_capacity as f64;
    let used: Vec<f64> = static_mem.iter().map(|&b| b as f64 / cap).collect();
    let total: f64 = used.iter().sum();
    total / used.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_dataflow::{algo, CallAssignment};
    use real_model::ModelSpec;
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
        let static_mem = static_bytes(&cluster, &graph, &plan, &HashSet::new(), &HashSet::new());
        // Exactly actor + critic optimizer state (§5.1: static = gradients
        // and optimizer states); frozen reference/reward contribute nothing.
        let s = ParallelStrategy::new(1, 8, 1, 8).unwrap();
        let actor = MemoryModel::new(ModelSpec::llama3_7b()).static_optim_bytes(&s);
        let critic = MemoryModel::new(ModelSpec::llama3_7b().critic()).static_optim_bytes(&s);
        assert_eq!(static_mem[0], actor + critic);
    }

    /// Peak bytes with the given ZeRO-3 and distributed-optimizer models.
    fn peak_with(
        cluster: &ClusterSpec,
        graph: &DataflowGraph,
        plan: &ExecutionPlan,
        zero3_models: &HashSet<String>,
        dist_optim_models: &HashSet<String>,
    ) -> u64 {
        mem_profile(cluster, graph, plan, zero3_models, dist_optim_models).peak()
    }

    #[test]
    fn no_zero3_matches_estimator() {
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let ours = peak_with(&cluster, &graph, &plan, &HashSet::new(), &HashSet::new());
        let theirs = max_mem(&cluster, &graph, &plan);
        assert_eq!(ours, theirs);
    }

    #[test]
    fn zero3_rescues_pure_dp_training() {
        let (cluster, graph) = setup(1, 512);
        let plan = symmetric(&cluster, &graph, 8, 1, 16);
        let plain = peak_with(&cluster, &graph, &plan, &HashSet::new(), &HashSet::new());
        let mut z: HashSet<String> = HashSet::new();
        z.insert("actor".into());
        z.insert("critic".into());
        let zero3 = peak_with(&cluster, &graph, &plan, &z, &HashSet::new());
        // Pure DP without ZeRO: full optimizer state replicated → > 200 GiB.
        assert!(plain > 200 * GIB);
        // ZeRO-3 shards it 8-way and fits.
        assert!(zero3 < 80 * GIB, "zero3 {}", zero3 / GIB);
    }

    #[test]
    fn zero3_frozen_model_moves_weights_to_sharded_static() {
        let (cluster, graph) = setup(1, 64);
        let plan = symmetric(&cluster, &graph, 1, 8, 8);
        let mut z: HashSet<String> = HashSet::new();
        z.insert("reference".into());
        // Frozen reference under ZeRO-3: its weights leave the active term
        // and reappear as world-sharded static, plus one gathered layer of
        // working set — the peak moves by at most that working set.
        let zero3 = peak_with(&cluster, &graph, &plan, &z, &HashSet::new());
        let plain = peak_with(&cluster, &graph, &plan, &HashSet::new(), &HashSet::new());
        // Bound the shift: static grows by at most the sharded weights
        // (2 B/param over world 8), active shrinks by at most the full
        // replicated shard.
        let shard = 2 * ModelSpec::llama3_7b().param_count() / 8;
        let replicated = MemoryModel::new(ModelSpec::llama3_7b())
            .weight_bytes_per_gpu(&ParallelStrategy::new(1, 8, 1, 8).unwrap());
        assert!(zero3 <= plain + shard, "zero3 {zero3} plain {plain}");
        assert!(zero3 + replicated >= plain, "zero3 {zero3} plain {plain}");
    }
}
