//! Per-call option enumeration with the §8.2 pruning heuristics, plus the
//! optional speculation dimension: per-generation-call draft/verify choices
//! drawn from a [`SpecMenu`].

use crate::specsearch::SpecMenu;
use real_cluster::{ClusterSpec, DeviceMesh};
use real_dataflow::{CallAssignment, CallId, CallType, DataflowGraph, SpecChoice};
use real_estimator::maxmem::call_active_bytes;
use real_model::{MemoryModel, ParallelStrategy};
use serde::{Deserialize, Serialize};

/// How aggressively to prune the option space (the Fig. 14 ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PruneLevel {
    /// Only hard validity: strategy fills the mesh, TP within the model's
    /// KV-head bound, DP within the batch.
    Light,
    /// Adds the paper's heuristics: TP bounded by the node width, static
    /// weights must fit the devices.
    Moderate,
    /// Adds an active-memory prefilter and restricts micro-batch counts to
    /// a minimal feasible window.
    Aggressive,
}

impl PruneLevel {
    fn mbs_options(&self) -> &'static [u32] {
        match self {
            PruneLevel::Light => &[1, 2, 4, 8, 16, 32, 64],
            PruneLevel::Moderate => &[1, 2, 4, 8, 16, 32],
            PruneLevel::Aggressive => &[1, 2, 4, 8, 16],
        }
    }
}

/// A call for which pruning removed every option: the model cannot run on
/// the cluster under any enumerated mesh/strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImpossibleCall {
    /// Name of the unfittable call.
    pub call_name: String,
}

impl std::fmt::Display for ImpossibleCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no valid option for call {}: model too large for the cluster",
            self.call_name
        )
    }
}

impl std::error::Error for ImpossibleCall {}

/// The pruned option lists, one per call of the workflow, and the
/// speculation choices of the generation calls (none unless added with
/// [`SearchSpace::with_speculation`]).
#[derive(Debug, Clone)]
pub struct SearchSpace {
    options: Vec<Vec<CallAssignment>>,
    spec: Vec<(CallId, Vec<SpecChoice>)>,
}

impl SearchSpace {
    /// Enumerates options for every call of `graph` on `cluster` at the
    /// given pruning level.
    ///
    /// # Panics
    ///
    /// Panics if pruning removes *every* option for some call — that means
    /// the model cannot run on the cluster at all. Use [`Self::try_build`]
    /// to handle that case as a value.
    pub fn build(cluster: &ClusterSpec, graph: &DataflowGraph, level: PruneLevel) -> Self {
        Self::try_build(cluster, graph, level).unwrap_or_else(|e| {
            panic!(
                "pruning removed every option for call {} — model too large for cluster",
                e.call_name
            )
        })
    }

    /// Fallible variant of [`Self::build`].
    ///
    /// # Errors
    ///
    /// Returns [`ImpossibleCall`] naming the first call with no valid
    /// option.
    pub fn try_build(
        cluster: &ClusterSpec,
        graph: &DataflowGraph,
        level: PruneLevel,
    ) -> Result<Self, ImpossibleCall> {
        Self::try_build_on(cluster, graph, level, &DeviceMesh::enumerate(cluster))
    }

    /// [`Self::try_build`] restricted to an explicit mesh set — the re-plan
    /// path passes `ClusterHealth::surviving_meshes` here so the search
    /// never places a call on dead hardware.
    ///
    /// The filters see a mesh only through its GPU count and TP cap, so
    /// each call's strategies are filtered once per such shape and the kept
    /// list is stamped onto every mesh of that shape, mesh by mesh in
    /// `meshes` order.
    ///
    /// # Errors
    ///
    /// Returns [`ImpossibleCall`] naming the first call with no valid
    /// option over `meshes`.
    pub fn try_build_on(
        cluster: &ClusterSpec,
        graph: &DataflowGraph,
        level: PruneLevel,
        meshes: &[DeviceMesh],
    ) -> Result<Self, ImpossibleCall> {
        let capacity = cluster.gpu.mem_capacity;
        let mut options: Vec<Vec<CallAssignment>> = Vec::with_capacity(graph.n_calls());

        for (_, call) in graph.iter() {
            let model = &call.model;
            let mm = MemoryModel::new(model.clone());
            let trainable = call.call_type.is_training();
            let batch = call.call_type.batch();
            let keeps = |s: &ParallelStrategy| {
                if u64::from(s.dp()) > batch {
                    return false;
                }
                if level != PruneLevel::Light {
                    // Static prefilter: weights (+ optimizer state when
                    // trainable) must fit.
                    let static_bytes = if trainable {
                        mm.static_train_bytes(s)
                    } else {
                        mm.weight_bytes_per_gpu(s)
                    };
                    if static_bytes > capacity {
                        return false;
                    }
                }
                // Aggressive: active-memory prefilter for this call alone.
                level != PruneLevel::Aggressive
                    || call_active_bytes(&mm, call.call_type, s, false) <= capacity
            };
            // The kept strategies per (GPU count, TP cap); a cluster's
            // meshes come in few shapes (11 at 1024 GPUs).
            let mut kept: Vec<((u32, u32), Vec<ParallelStrategy>)> = Vec::new();
            let mut opts = Vec::new();

            for &mesh in meshes {
                let n = mesh.n_gpus();
                let max_tp = match level {
                    PruneLevel::Light => model.max_tp().min(u64::from(n)) as u32,
                    // §8.2: discard TP degrees exceeding the node width.
                    _ => model
                        .max_tp()
                        .min(u64::from(cluster.gpus_per_node))
                        .min(u64::from(mesh.gpu_width())) as u32,
                };
                let shape = (n, max_tp);
                let strategies = match kept.iter().position(|(k, _)| *k == shape) {
                    Some(i) => &kept[i].1,
                    None => {
                        let max_pp = model.n_layers.min(u64::from(n)) as u32;
                        let list =
                            ParallelStrategy::enumerate(n, max_tp, max_pp, level.mbs_options())
                                .into_iter()
                                .filter(|s| keeps(s))
                                .collect();
                        kept.push((shape, list));
                        &kept[kept.len() - 1].1
                    }
                };
                opts.extend(strategies.iter().map(|&s| {
                    CallAssignment::new(mesh, s).expect("enumerated strategies fill their mesh")
                }));
            }
            if opts.is_empty() {
                return Err(ImpossibleCall {
                    call_name: call.call_name.clone(),
                });
            }
            options.push(opts);
        }
        Ok(Self {
            options,
            spec: Vec::new(),
        })
    }

    /// Adds the speculation dimension: every generation call of `graph`
    /// for which `menu` offers a choice may carry one of those choices, or
    /// none (plain decode). An empty menu leaves the space unchanged.
    #[must_use]
    pub fn with_speculation(mut self, graph: &DataflowGraph, menu: &SpecMenu) -> Self {
        self.spec = graph
            .iter()
            .filter(|(_, c)| matches!(c.call_type, CallType::Generate { .. }))
            .map(|(id, c)| (id, menu.options(&c.model)))
            .filter(|(_, choices)| !choices.is_empty())
            .collect();
        self
    }

    /// The generation calls that may speculate, each with its menu choices
    /// (never empty); empty when the space has no speculation dimension.
    pub(crate) fn spec_options(&self) -> &[(CallId, Vec<SpecChoice>)] {
        &self.spec
    }

    /// Option list for one call.
    ///
    /// # Panics
    ///
    /// Panics if `call` is out of range.
    pub fn options(&self, call: usize) -> &[CallAssignment] {
        &self.options[call]
    }

    /// Number of calls.
    pub fn n_calls(&self) -> usize {
        self.options.len()
    }

    /// log10 of the total number of execution plans in the space.
    pub fn log10_size(&self) -> f64 {
        self.options.iter().map(|o| (o.len() as f64).log10()).sum()
    }

    /// Total options across calls.
    pub fn total_options(&self) -> usize {
        self.options.iter().map(Vec::len).sum()
    }

    /// Keeps only the `k` best options per call as ranked by `score`
    /// (ascending). Used by brute force to bound the enumeration.
    pub fn truncated_by<F>(&self, k: usize, mut score: F) -> Self
    where
        F: FnMut(usize, &CallAssignment) -> f64,
    {
        assert!(k > 0, "must keep at least one option per call");
        let options = self
            .options
            .iter()
            .enumerate()
            .map(|(call, opts)| {
                let mut scored: Vec<(f64, CallAssignment)> =
                    opts.iter().map(|a| (score(call, a), *a)).collect();
                scored.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("scores are finite"));
                scored.into_iter().take(k).map(|(_, a)| a).collect()
            })
            .collect();
        Self {
            options,
            spec: self.spec.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_dataflow::algo::{ppo, RlhfConfig};
    use real_model::ModelSpec;

    fn graph_7b(batch: u64) -> DataflowGraph {
        let a = ModelSpec::llama3_7b();
        ppo(&a, &a.critic(), &RlhfConfig::instruct_gpt(batch))
    }

    #[test]
    fn one_node_space_has_hundreds_of_options_per_call() {
        // The paper: "in a cluster of shape (8,8), there are over 500
        // options for each model function call". One node is smaller but
        // should still offer dozens-to-hundreds.
        let cluster = ClusterSpec::h100(1);
        let space = SearchSpace::build(&cluster, &graph_7b(512), PruneLevel::Moderate);
        for call in 0..space.n_calls() {
            let n = space.options(call).len();
            assert!(n > 50, "call {call} has only {n} options");
        }
    }

    #[test]
    fn pruning_levels_shrink_the_space() {
        let cluster = ClusterSpec::h100(2);
        let g = graph_7b(512);
        let light = SearchSpace::build(&cluster, &g, PruneLevel::Light);
        let moderate = SearchSpace::build(&cluster, &g, PruneLevel::Moderate);
        let aggressive = SearchSpace::build(&cluster, &g, PruneLevel::Aggressive);
        assert!(light.log10_size() > moderate.log10_size());
        assert!(moderate.log10_size() > aggressive.log10_size());
    }

    #[test]
    fn moderate_level_respects_node_tp_bound() {
        let cluster = ClusterSpec::h100(2);
        let space = SearchSpace::build(&cluster, &graph_7b(512), PruneLevel::Moderate);
        for call in 0..space.n_calls() {
            for a in space.options(call) {
                assert!(a.strategy.tp() <= cluster.gpus_per_node);
                assert!(a.strategy.tp() <= a.mesh.gpu_width());
            }
        }
    }

    #[test]
    fn all_options_fill_their_mesh() {
        let cluster = ClusterSpec::h100(1);
        let space = SearchSpace::build(&cluster, &graph_7b(64), PruneLevel::Light);
        for call in 0..space.n_calls() {
            for a in space.options(call) {
                assert_eq!(a.strategy.world_size(), a.mesh.n_gpus());
            }
        }
    }

    #[test]
    fn static_prefilter_drops_single_gpu_70b() {
        let cluster = ClusterSpec::h100(4);
        let a = ModelSpec::llama3_70b();
        let g = ppo(
            &a,
            &ModelSpec::llama3_7b().critic(),
            &RlhfConfig::instruct_gpt(512),
        );
        let space = SearchSpace::build(&cluster, &g, PruneLevel::Moderate);
        // 70B training cannot sit on few-GPU meshes: optimizer state alone
        // is ~1.1 TB.
        let train_opts = space.options(4); // actor_train is call index 4
        for a in train_opts {
            assert!(
                a.strategy.tp() * a.strategy.pp() >= 16,
                "70B training needs >= 16-way model sharding, got {}",
                a.strategy
            );
        }
    }

    #[test]
    fn paper_scale_space_sizes() {
        // 8 nodes (64 GPUs): the paper quotes > 10^16 total plans for the
        // unpruned 6-call space.
        let cluster = ClusterSpec::h100(8);
        let light = SearchSpace::build(&cluster, &graph_7b(512), PruneLevel::Light);
        assert!(light.log10_size() > 16.0, "log10 {}", light.log10_size());
    }

    #[test]
    fn truncation_keeps_best_k() {
        let cluster = ClusterSpec::h100(1);
        let space = SearchSpace::build(&cluster, &graph_7b(64), PruneLevel::Aggressive);
        let small = space.truncated_by(3, |_, a| f64::from(a.strategy.tp()));
        for call in 0..small.n_calls() {
            assert_eq!(small.options(call).len(), 3);
            // Scored by TP: kept options have the smallest TP degrees.
            assert!(small.options(call).iter().all(|a| a.strategy.tp() <= 2));
        }
    }

    #[test]
    fn restricted_mesh_set_confines_every_option() {
        use real_cluster::{ClusterHealth, GpuId};
        let cluster = ClusterSpec::h100(2);
        let g = graph_7b(512);
        let mut health = ClusterHealth::healthy(&cluster);
        health.mark_dead(GpuId(0)); // kills node 0's slices and all spans over it
        let surviving = health.surviving_meshes();
        let space =
            SearchSpace::try_build_on(&cluster, &g, PruneLevel::Moderate, &surviving).unwrap();
        for call in 0..space.n_calls() {
            assert!(!space.options(call).is_empty());
            for a in space.options(call) {
                assert!(!a.mesh.contains(GpuId(0)), "option on dead gpu: {}", a.mesh);
            }
        }
        // The full enumeration and the restricted build agree when the
        // restricted set is the full set.
        let full = SearchSpace::try_build(&cluster, &g, PruneLevel::Moderate).unwrap();
        let again = SearchSpace::try_build_on(
            &cluster,
            &g,
            PruneLevel::Moderate,
            &DeviceMesh::enumerate(&cluster),
        )
        .unwrap();
        assert_eq!(full.total_options(), again.total_options());
    }

    #[test]
    fn empty_mesh_set_is_impossible() {
        let cluster = ClusterSpec::h100(1);
        let err =
            SearchSpace::try_build_on(&cluster, &graph_7b(64), PruneLevel::Light, &[]).unwrap_err();
        assert!(!err.call_name.is_empty());
    }

    #[test]
    #[should_panic(expected = "too large for cluster")]
    fn impossible_model_panics() {
        // 70B on a single node: optimizer state cannot fit anywhere.
        let cluster = ClusterSpec::h100(1);
        let a = ModelSpec::llama3_70b();
        let g = ppo(&a, &a.critic(), &RlhfConfig::instruct_gpt(512));
        SearchSpace::build(&cluster, &g, PruneLevel::Moderate);
    }
}
