//! Mapping from `(mesh, strategy)` to concrete GPU index groups.
//!
//! Megatron rank order (TP fastest, then DP, then PP) composed with the
//! node-major mesh rank order keeps TP groups on consecutive GPUs.

use real_dataflow::CallAssignment;
use real_model::parallel::Coords;

/// Resolved GPU groups for one call assignment.
#[derive(Debug, Clone)]
pub struct Layout {
    /// `tp_groups[pp][dp]` = global GPU indices of one TP group.
    tp_groups: Vec<Vec<Vec<usize>>>,
    /// `dp_groups[pp][tp]` = global GPU indices across the DP dimension.
    dp_groups: Vec<Vec<Vec<usize>>>,
    gpus_per_node: u32,
}

impl Layout {
    /// Resolves the groups for `a`.
    pub fn new(a: &CallAssignment) -> Self {
        let s = &a.strategy;
        let (dp, tp, pp) = (s.dp(), s.tp(), s.pp());
        let mut tp_groups = vec![vec![Vec::with_capacity(tp as usize); dp as usize]; pp as usize];
        let mut dp_groups = vec![vec![Vec::with_capacity(dp as usize); tp as usize]; pp as usize];
        for rank in 0..s.world_size() {
            let Coords {
                dp: d,
                tp: t,
                pp: p,
            } = s.coords(rank);
            let gpu = a.mesh.gpu_at(rank).0 as usize;
            tp_groups[p as usize][d as usize].push(gpu);
            dp_groups[p as usize][t as usize].push(gpu);
        }
        Self {
            tp_groups,
            dp_groups,
            gpus_per_node: a.mesh.gpus_per_node(),
        }
    }

    /// The TP group of replica `dp` at stage `pp`.
    pub fn tp_group(&self, pp: u32, dp: u32) -> &[usize] {
        &self.tp_groups[pp as usize][dp as usize]
    }

    /// The DP group at stage `pp`, TP rank `tp`.
    pub fn dp_group(&self, pp: u32, tp: u32) -> &[usize] {
        &self.dp_groups[pp as usize][tp as usize]
    }

    /// Whether a set of GPUs sits on one node.
    pub fn within_node(&self, gpus: &[usize]) -> bool {
        let node = |g: usize| g as u32 / self.gpus_per_node;
        gpus.windows(2).all(|w| node(w[0]) == node(w[1]))
    }

    /// First GPU of the group (used as the representative endpoint for
    /// aggregated P2P events).
    pub fn leader(gpus: &[usize]) -> usize {
        *gpus.first().expect("groups are non-empty")
    }

    /// Whether two specific GPUs share a node.
    pub fn pair_within_node(&self, a: usize, b: usize) -> bool {
        (a as u32 / self.gpus_per_node) == (b as u32 / self.gpus_per_node)
    }

    /// Node of a GPU.
    pub fn node_of(&self, gpu: usize) -> u32 {
        gpu as u32 / self.gpus_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::{ClusterSpec, DeviceMesh};
    use real_model::ParallelStrategy;

    fn assignment(dp: u32, tp: u32, pp: u32) -> CallAssignment {
        let cluster = ClusterSpec::h100(2);
        CallAssignment::new(
            DeviceMesh::full(&cluster),
            ParallelStrategy::new(dp, tp, pp, 1).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn tp_groups_are_consecutive_gpus() {
        let a = assignment(2, 4, 2);
        let l = Layout::new(&a);
        assert_eq!(l.tp_group(0, 0), &[0, 1, 2, 3]);
        assert_eq!(l.tp_group(0, 1), &[4, 5, 6, 7]);
        assert_eq!(l.tp_group(1, 0), &[8, 9, 10, 11]);
        assert!(l.within_node(l.tp_group(0, 0)));
    }

    #[test]
    fn dp_groups_stride_by_tp() {
        let a = assignment(2, 4, 2);
        let l = Layout::new(&a);
        assert_eq!(l.dp_group(0, 0), &[0, 4]);
        assert_eq!(l.dp_group(0, 3), &[3, 7]);
        assert_eq!(l.dp_group(1, 0), &[8, 12]);
    }

    #[test]
    fn stage_crossing_detected() {
        let a = assignment(1, 8, 2);
        let l = Layout::new(&a);
        // Stage 0 on node 0, stage 1 on node 1.
        assert!(l.within_node(l.tp_group(0, 0)));
        assert!(l.within_node(l.tp_group(1, 0)));
        assert!(!l.pair_within_node(
            Layout::leader(l.tp_group(0, 0)),
            Layout::leader(l.tp_group(1, 0))
        ));
    }

    #[test]
    fn sub_node_mesh_layout() {
        let cluster = ClusterSpec::h100(2);
        let a = CallAssignment::new(
            DeviceMesh::sub_node(&cluster, 1, 4, 4).unwrap(),
            ParallelStrategy::new(2, 2, 1, 1).unwrap(),
        )
        .unwrap();
        let l = Layout::new(&a);
        assert_eq!(l.tp_group(0, 0), &[12, 13]);
        assert_eq!(l.tp_group(0, 1), &[14, 15]);
        assert_eq!(l.node_of(12), 1);
    }

    #[test]
    fn groups_partition_the_mesh() {
        let a = assignment(4, 2, 2);
        let l = Layout::new(&a);
        let mut seen = std::collections::HashSet::new();
        for pp in 0..2 {
            for dp in 0..4 {
                for &g in l.tp_group(pp, dp) {
                    assert!(seen.insert(g), "gpu {g} appears twice");
                }
            }
        }
        assert_eq!(seen.len(), 16);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use real_cluster::{ClusterSpec, DeviceMesh};
        use real_model::ParallelStrategy;

        proptest! {
            #[test]
            fn groups_always_partition(dp_pow in 0u32..4, tp_pow in 0u32..4, pp_pow in 0u32..4) {
                let world = 1u32 << (dp_pow + tp_pow + pp_pow);
                prop_assume!((1..=32).contains(&world));
                let nodes = (world / 8).max(1);
                prop_assume!(nodes.is_power_of_two());
                let cluster = ClusterSpec::h100(nodes.max(1));
                prop_assume!(world <= cluster.total_gpus());
                let mesh = if world >= 8 {
                    DeviceMesh::whole_nodes(&cluster, 0, world / 8).unwrap()
                } else {
                    DeviceMesh::sub_node(&cluster, 0, 0, world).unwrap()
                };
                let s = ParallelStrategy::new(1 << dp_pow, 1 << tp_pow, 1 << pp_pow, 1).unwrap();
                let a = CallAssignment::new(mesh, s).unwrap();
                let l = Layout::new(&a);
                let mut seen = std::collections::HashSet::new();
                for pp in 0..s.pp() {
                    for dp in 0..s.dp() {
                        for &g in l.tp_group(pp, dp) {
                            prop_assert!(seen.insert(g), "gpu {} twice", g);
                            prop_assert!(mesh.contains(real_cluster::GpuId(g as u32)));
                        }
                    }
                }
                prop_assert_eq!(seen.len() as u32, world);
                // DP groups cover the same set.
                let mut seen2 = std::collections::HashSet::new();
                for pp in 0..s.pp() {
                    for tp in 0..s.tp() {
                        for &g in l.dp_group(pp, tp) {
                            prop_assert!(seen2.insert(g));
                        }
                    }
                }
                prop_assert_eq!(seen2, seen);
            }
        }
    }
}
