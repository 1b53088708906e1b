//! Device meshes (§4 of the paper): two-dimensional grids of GPUs that
//! execution plans assign to model function calls.
//!
//! The paper restricts meshes to shapes that let multiple meshes tile the
//! cluster exactly: either a contiguous slice of one node whose width is a
//! power of two dividing the node size (and aligned to its width), or a span
//! of whole nodes. We additionally require whole-node spans to be buddy
//! aligned (span length a power of two, start a multiple of the length),
//! which preserves exact tileability at every scale.

use crate::spec::ClusterSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Global GPU identifier: `node * gpus_per_node + local_index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GpuId(pub u32);

impl GpuId {
    /// The node hosting this GPU.
    pub fn node(self, gpus_per_node: u32) -> u32 {
        self.0 / gpus_per_node
    }

    /// The GPU's index within its node.
    pub fn local(self, gpus_per_node: u32) -> u32 {
        self.0 % gpus_per_node
    }
}

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Errors from [`DeviceMesh`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeshError {
    /// The mesh would extend past the cluster boundary.
    OutOfBounds(String),
    /// The shape violates the §4 enumeration rules.
    InvalidShape(String),
}

impl fmt::Display for MeshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshError::OutOfBounds(msg) => write!(f, "mesh out of bounds: {msg}"),
            MeshError::InvalidShape(msg) => write!(f, "invalid mesh shape: {msg}"),
        }
    }
}

impl std::error::Error for MeshError {}

/// A contiguous rectangle of GPUs.
///
/// Two flavours exist (see module docs): sub-node slices (`node_count == 1`,
/// `gpu_width < gpus_per_node`) and whole-node spans
/// (`gpu_width == gpus_per_node`).
///
/// Meshes order by their fields in declaration order (`node_start`,
/// `node_count`, `gpu_start`, `gpu_width`): a deterministic total order that
/// schedulers use to break ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceMesh {
    node_start: u32,
    node_count: u32,
    gpu_start: u32,
    gpu_width: u32,
    gpus_per_node: u32,
}

impl DeviceMesh {
    /// Creates a sub-node mesh on `node` covering local GPUs
    /// `[gpu_start, gpu_start + width)`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError`] if the slice is misaligned, its width is not a
    /// power of two dividing the node size, or it exceeds the cluster.
    pub fn sub_node(
        cluster: &ClusterSpec,
        node: u32,
        gpu_start: u32,
        width: u32,
    ) -> Result<Self, MeshError> {
        let m = cluster.gpus_per_node;
        if node >= cluster.n_nodes {
            return Err(MeshError::OutOfBounds(format!(
                "node {node} >= n_nodes {}",
                cluster.n_nodes
            )));
        }
        if width == 0 || width >= m || !width.is_power_of_two() {
            return Err(MeshError::InvalidShape(format!(
                "sub-node width {width} must be a power of two < {m}"
            )));
        }
        if !gpu_start.is_multiple_of(width) || gpu_start + width > m {
            return Err(MeshError::InvalidShape(format!(
                "slice [{gpu_start}, {}) misaligned for width {width}",
                gpu_start + width
            )));
        }
        Ok(Self {
            node_start: node,
            node_count: 1,
            gpu_start,
            gpu_width: width,
            gpus_per_node: m,
        })
    }

    /// Creates a whole-node mesh over nodes `[node_start, node_start + count)`.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError`] if the span is not buddy aligned (count a power
    /// of two, start a multiple of count) or exceeds the cluster.
    pub fn whole_nodes(
        cluster: &ClusterSpec,
        node_start: u32,
        count: u32,
    ) -> Result<Self, MeshError> {
        if count == 0 || !count.is_power_of_two() {
            return Err(MeshError::InvalidShape(format!(
                "node count {count} must be a positive power of two"
            )));
        }
        if !node_start.is_multiple_of(count) {
            return Err(MeshError::InvalidShape(format!(
                "node span start {node_start} misaligned for count {count}"
            )));
        }
        if node_start + count > cluster.n_nodes {
            return Err(MeshError::OutOfBounds(format!(
                "span [{node_start}, {}) exceeds {} nodes",
                node_start + count,
                cluster.n_nodes
            )));
        }
        Ok(Self {
            node_start,
            node_count: count,
            gpu_start: 0,
            gpu_width: cluster.gpus_per_node,
            gpus_per_node: cluster.gpus_per_node,
        })
    }

    /// The mesh covering the entire cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster.n_nodes` is not a power of two (all presets are).
    pub fn full(cluster: &ClusterSpec) -> Self {
        Self::whole_nodes(cluster, 0, cluster.n_nodes)
            .expect("full-cluster mesh must be constructible")
    }

    /// Enumerates every valid mesh in the cluster per the §4 rules.
    pub fn enumerate(cluster: &ClusterSpec) -> Vec<Self> {
        let mut out = Vec::with_capacity(Self::enumerate_count(cluster));
        // Sub-node slices.
        for node in 0..cluster.n_nodes {
            let mut w = 1;
            while w < cluster.gpus_per_node {
                let mut start = 0;
                while start + w <= cluster.gpus_per_node {
                    out.push(
                        Self::sub_node(cluster, node, start, w)
                            .expect("enumerated sub-node mesh must be valid"),
                    );
                    start += w;
                }
                w *= 2;
            }
        }
        // Whole-node buddy spans.
        let mut count = 1;
        while count <= cluster.n_nodes {
            let mut start = 0;
            while start + count <= cluster.n_nodes {
                if start % count == 0 {
                    out.push(
                        Self::whole_nodes(cluster, start, count)
                            .expect("enumerated node span must be valid"),
                    );
                }
                start += count;
            }
            count *= 2;
        }
        out
    }

    /// Number of meshes [`DeviceMesh::enumerate`] yields, in closed form.
    /// Lets callers pre-size buffers instead of growing them — noticeable at
    /// the ROADMAP's 8192-GPU scale where the enumeration has ~16k entries.
    pub fn enumerate_count(cluster: &ClusterSpec) -> usize {
        let mut per_node = 0usize;
        let mut w = 1;
        while w < cluster.gpus_per_node {
            per_node += (cluster.gpus_per_node / w) as usize;
            w *= 2;
        }
        let mut spans = 0usize;
        let mut count = 1;
        while count <= cluster.n_nodes {
            spans += (cluster.n_nodes / count) as usize;
            count *= 2;
        }
        cluster.n_nodes as usize * per_node + spans
    }

    /// The subset of [`DeviceMesh::enumerate`] contained in `region`,
    /// generated directly instead of filtering the full enumeration — the
    /// output (order included) is identical to
    /// `enumerate(cluster).into_iter().filter(|m| region.contains_mesh(m))`,
    /// but the work is proportional to the *region*, not the cluster. The
    /// scheduler prices thousands of candidate regions per plan, so at large
    /// cluster sizes this turns an `O(cluster)` scan per candidate into
    /// `O(region)`.
    ///
    /// Buddy alignment makes the direct walk exact: every valid region has a
    /// power-of-two extent with an aligned start on both axes, so the
    /// contained slices of width `w` are precisely those starting at
    /// `region.gpu_start + k·w`, and likewise for node spans.
    ///
    /// ```
    /// use real_cluster::{ClusterSpec, DeviceMesh};
    ///
    /// let cluster = ClusterSpec::h100(4);
    /// let region = DeviceMesh::whole_nodes(&cluster, 2, 2).unwrap();
    /// let direct = DeviceMesh::enumerate_within(&cluster, &region);
    /// let filtered: Vec<_> = DeviceMesh::enumerate(&cluster)
    ///     .into_iter()
    ///     .filter(|m| region.contains_mesh(m))
    ///     .collect();
    /// assert_eq!(direct, filtered);
    /// ```
    pub fn enumerate_within(cluster: &ClusterSpec, region: &Self) -> Vec<Self> {
        debug_assert_eq!(region.gpus_per_node, cluster.gpus_per_node);
        let mut out = Vec::new();
        let gpu_end = region.gpu_start + region.gpu_width;
        // Sub-node slices: meshes narrower than a node inside the region's
        // GPU window, for each region node.
        for node in region.node_start..region.node_start + region.node_count {
            let mut w = 1;
            while w < cluster.gpus_per_node {
                if w <= region.gpu_width {
                    let mut start = region.gpu_start;
                    while start + w <= gpu_end {
                        out.push(
                            Self::sub_node(cluster, node, start, w)
                                .expect("enumerated sub-node mesh must be valid"),
                        );
                        start += w;
                    }
                }
                w *= 2;
            }
        }
        // Whole-node buddy spans fit only when the region itself spans whole
        // nodes.
        if region.gpu_start == 0 && region.gpu_width == cluster.gpus_per_node {
            let mut count = 1;
            while count <= region.node_count {
                let mut start = region.node_start;
                while start + count <= region.node_start + region.node_count {
                    out.push(
                        Self::whole_nodes(cluster, start, count)
                            .expect("enumerated node span must be valid"),
                    );
                    start += count;
                }
                count *= 2;
            }
        }
        out
    }

    /// Number of GPUs in the mesh.
    pub fn n_gpus(&self) -> u32 {
        self.node_count * self.gpu_width
    }

    /// Number of nodes the mesh touches.
    pub fn n_nodes(&self) -> u32 {
        self.node_count
    }

    /// GPUs per node of the owning cluster (shape context for rank mapping).
    pub fn gpus_per_node(&self) -> u32 {
        self.gpus_per_node
    }

    /// First node of the mesh.
    pub fn node_start(&self) -> u32 {
        self.node_start
    }

    /// Local GPU offset on each node (non-zero only for sub-node slices).
    pub fn gpu_start(&self) -> u32 {
        self.gpu_start
    }

    /// GPUs used per node.
    pub fn gpu_width(&self) -> u32 {
        self.gpu_width
    }

    /// Whether this mesh is confined to part of a single node.
    pub fn is_sub_node(&self) -> bool {
        self.gpu_width < self.gpus_per_node
    }

    /// The global GPU at mesh-local `rank` (node-major, then local index).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.n_gpus()`.
    pub fn gpu_at(&self, rank: u32) -> GpuId {
        assert!(
            rank < self.n_gpus(),
            "rank {rank} out of mesh of {}",
            self.n_gpus()
        );
        let node = self.node_start + rank / self.gpu_width;
        let local = self.gpu_start + rank % self.gpu_width;
        GpuId(node * self.gpus_per_node + local)
    }

    /// Iterates the global GPU ids in rank order.
    pub fn gpus(&self) -> impl Iterator<Item = GpuId> + '_ {
        (0..self.n_gpus()).map(|r| self.gpu_at(r))
    }

    /// Whether the mesh contains a given global GPU.
    pub fn contains(&self, gpu: GpuId) -> bool {
        let node = gpu.node(self.gpus_per_node);
        let local = gpu.local(self.gpus_per_node);
        node >= self.node_start
            && node < self.node_start + self.node_count
            && local >= self.gpu_start
            && local < self.gpu_start + self.gpu_width
    }

    /// Whether every GPU of `other` is also a GPU of this mesh. Used by the
    /// multi-tenant partitioner to restrict a tenant's search space to the
    /// meshes inside its allocation.
    pub fn contains_mesh(&self, other: &Self) -> bool {
        debug_assert_eq!(self.gpus_per_node, other.gpus_per_node);
        other.node_start >= self.node_start
            && other.node_start + other.node_count <= self.node_start + self.node_count
            && other.gpu_start >= self.gpu_start
            && other.gpu_start + other.gpu_width <= self.gpu_start + self.gpu_width
    }

    /// Whether two meshes share at least one GPU. Used by Algorithm 1 to
    /// serialize function calls placed on overlapping resources.
    pub fn overlaps(&self, other: &Self) -> bool {
        debug_assert_eq!(self.gpus_per_node, other.gpus_per_node);
        let nodes_overlap = self.node_start < other.node_start + other.node_count
            && other.node_start < self.node_start + self.node_count;
        if !nodes_overlap {
            return false;
        }
        self.gpu_start < other.gpu_start + other.gpu_width
            && other.gpu_start < self.gpu_start + self.gpu_width
    }

    /// Whether a group of `group_size` consecutive ranks starting at any
    /// multiple of `group_size` stays within a single node. Parallelization
    /// strategies map TP groups to consecutive ranks, so this decides whether
    /// TP collectives ride NVLink or the inter-node fabric.
    pub fn consecutive_group_within_node(&self, group_size: u32) -> bool {
        group_size <= self.gpu_width
    }
}

impl fmt::Display for DeviceMesh {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_sub_node() {
            write!(
                f,
                "node{}[gpu{}-{}]",
                self.node_start,
                self.gpu_start,
                self.gpu_start + self.gpu_width - 1
            )
        } else if self.node_count == 1 {
            write!(f, "node{}", self.node_start)
        } else {
            write!(
                f,
                "node[{}-{}]",
                self.node_start,
                self.node_start + self.node_count - 1
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cluster2() -> ClusterSpec {
        ClusterSpec::h100(2)
    }

    #[test]
    fn sub_node_alignment_enforced() {
        let c = cluster2();
        assert!(DeviceMesh::sub_node(&c, 0, 0, 2).is_ok());
        assert!(DeviceMesh::sub_node(&c, 0, 2, 2).is_ok());
        assert!(DeviceMesh::sub_node(&c, 0, 1, 2).is_err()); // misaligned
        assert!(DeviceMesh::sub_node(&c, 0, 0, 3).is_err()); // not power of two
        assert!(DeviceMesh::sub_node(&c, 0, 0, 8).is_err()); // full node is whole_nodes
        assert!(DeviceMesh::sub_node(&c, 2, 0, 2).is_err()); // node OOB
    }

    #[test]
    fn whole_nodes_buddy_alignment() {
        let c = ClusterSpec::h100(4);
        assert!(DeviceMesh::whole_nodes(&c, 0, 2).is_ok());
        assert!(DeviceMesh::whole_nodes(&c, 2, 2).is_ok());
        assert!(DeviceMesh::whole_nodes(&c, 1, 2).is_err()); // misaligned
        assert!(DeviceMesh::whole_nodes(&c, 0, 3).is_err()); // not pow2
        assert!(DeviceMesh::whole_nodes(&c, 4, 1).is_err()); // OOB
    }

    #[test]
    fn enumerate_counts_for_one_node() {
        // One node of 8: sub-node widths 1(8 slices), 2(4), 4(2) = 14, plus
        // the whole node = 15.
        let c = ClusterSpec::h100(1);
        assert_eq!(DeviceMesh::enumerate(&c).len(), 15);
    }

    #[test]
    fn enumerate_counts_for_two_nodes() {
        // Two nodes: 14 sub-node each = 28, whole-node spans: (0,1),(1,1),(0,2) = 3.
        let c = cluster2();
        assert_eq!(DeviceMesh::enumerate(&c).len(), 31);
    }

    #[test]
    fn gpu_at_maps_node_major() {
        let c = cluster2();
        let m = DeviceMesh::whole_nodes(&c, 0, 2).unwrap();
        assert_eq!(m.gpu_at(0), GpuId(0));
        assert_eq!(m.gpu_at(7), GpuId(7));
        assert_eq!(m.gpu_at(8), GpuId(8));
        assert_eq!(m.gpu_at(15), GpuId(15));

        let s = DeviceMesh::sub_node(&c, 1, 4, 4).unwrap();
        assert_eq!(s.gpu_at(0), GpuId(12));
        assert_eq!(s.gpu_at(3), GpuId(15));
    }

    #[test]
    fn contains_and_overlap() {
        let c = cluster2();
        let left = DeviceMesh::sub_node(&c, 0, 0, 4).unwrap();
        let right = DeviceMesh::sub_node(&c, 0, 4, 4).unwrap();
        let full = DeviceMesh::full(&c);
        assert!(!left.overlaps(&right));
        assert!(left.overlaps(&full));
        assert!(right.overlaps(&full));
        assert!(left.contains(GpuId(3)));
        assert!(!left.contains(GpuId(4)));
        assert!(!left.contains(GpuId(8)));
    }

    #[test]
    fn contains_mesh_matches_gpu_set_containment() {
        let c = cluster2();
        let meshes = DeviceMesh::enumerate(&c);
        for a in &meshes {
            for b in &meshes {
                let set = b.gpus().all(|g| a.contains(g));
                assert_eq!(a.contains_mesh(b), set, "{a} contains {b}");
            }
        }
    }

    #[test]
    fn overlap_requires_same_node_and_slice() {
        let c = cluster2();
        let a = DeviceMesh::sub_node(&c, 0, 0, 2).unwrap();
        let b = DeviceMesh::sub_node(&c, 1, 0, 2).unwrap();
        assert!(!a.overlaps(&b));
        let n1 = DeviceMesh::whole_nodes(&c, 1, 1).unwrap();
        assert!(b.overlaps(&n1));
        assert!(!a.overlaps(&n1));
    }

    #[test]
    fn display_forms() {
        let c = cluster2();
        assert_eq!(
            DeviceMesh::sub_node(&c, 0, 4, 2).unwrap().to_string(),
            "node0[gpu4-5]"
        );
        assert_eq!(
            DeviceMesh::whole_nodes(&c, 1, 1).unwrap().to_string(),
            "node1"
        );
        assert_eq!(DeviceMesh::full(&c).to_string(), "node[0-1]");
    }

    #[test]
    fn consecutive_group_within_node() {
        let c = cluster2();
        let full = DeviceMesh::full(&c);
        assert!(full.consecutive_group_within_node(8));
        assert!(!full.consecutive_group_within_node(16));
        let slice = DeviceMesh::sub_node(&c, 0, 0, 4).unwrap();
        assert!(slice.consecutive_group_within_node(4));
        assert!(!slice.consecutive_group_within_node(8));
    }

    #[test]
    #[should_panic(expected = "out of mesh")]
    fn gpu_at_out_of_range_panics() {
        let c = cluster2();
        DeviceMesh::sub_node(&c, 0, 0, 2).unwrap().gpu_at(2);
    }

    proptest! {
        #[test]
        fn enumerated_meshes_tile_consistently(n_nodes_pow in 0u32..4) {
            let c = ClusterSpec::h100(1 << n_nodes_pow);
            for m in DeviceMesh::enumerate(&c) {
                // Every mesh's GPUs are inside the cluster and contained.
                for g in m.gpus() {
                    prop_assert!(g.0 < c.total_gpus());
                    prop_assert!(m.contains(g));
                }
                // Rank count matches the iterator length.
                prop_assert_eq!(m.gpus().count() as u32, m.n_gpus());
            }
        }

        #[test]
        fn enumerate_count_matches_enumeration(n_nodes_pow in 0u32..5) {
            let c = ClusterSpec::h100(1 << n_nodes_pow);
            prop_assert_eq!(DeviceMesh::enumerate(&c).len(), DeviceMesh::enumerate_count(&c));
        }

        #[test]
        fn enumerate_within_matches_filtered_enumeration(n_nodes_pow in 0u32..4) {
            let c = ClusterSpec::h100(1 << n_nodes_pow);
            let all = DeviceMesh::enumerate(&c);
            // Every enumerable mesh is a valid region; the direct walk must
            // reproduce the filtered list exactly, order included.
            for region in &all {
                let filtered: Vec<_> = all
                    .iter()
                    .copied()
                    .filter(|m| region.contains_mesh(m))
                    .collect();
                prop_assert_eq!(DeviceMesh::enumerate_within(&c, region), filtered);
            }
        }

        #[test]
        fn overlap_agrees_with_gpu_set_intersection(seed in 0u64..500) {
            let c = ClusterSpec::h100(4);
            let meshes = DeviceMesh::enumerate(&c);
            let i = (seed as usize * 7919) % meshes.len();
            let j = (seed as usize * 104729) % meshes.len();
            let (a, b) = (meshes[i], meshes[j]);
            let set_overlap = a.gpus().any(|g| b.contains(g));
            prop_assert_eq!(a.overlaps(&b), set_overlap);
            prop_assert_eq!(b.overlaps(&a), set_overlap);
        }
    }
}
