//! Cluster partitioning for multi-tenant scheduling.
//!
//! The scheduler in `real-sched` divides one cluster between several tenant
//! experiments. Each tenant receives an *allocation* — a [`DeviceMesh`] it
//! owns exclusively — and plans its function calls only on meshes contained
//! in that allocation. This module provides the two primitives that layer
//! needs on top of the §4 mesh enumeration:
//!
//! - [`meshes_within`] — the enumeration restricted to one allocation
//!   (mirrors [`crate::ClusterHealth::surviving_meshes`], which restricts by
//!   liveness instead of ownership),
//! - [`enumerate_splits`] — every way to pick one candidate allocation per
//!   tenant such that the picks are pairwise disjoint, deterministically
//!   capped so the top-level allocation search stays bounded.
//!
//! Because §4 meshes are buddy-aligned, two allocations are either disjoint
//! or nested — so "pairwise non-overlapping" is exactly the partition
//! property the scheduler needs; no gerrymandered shapes can slip through.

use crate::mesh::DeviceMesh;
use crate::spec::ClusterSpec;

/// The §4 mesh enumeration of `cluster`, restricted to meshes wholly inside
/// the GPU set of `allocation`.
///
/// Generated directly via [`DeviceMesh::enumerate_within`] (work scales with
/// the allocation, not the cluster) but identical — order included — to
/// filtering the full enumeration, so scheduler candidate probes stay
/// bit-reproducible across this fast path.
///
/// # Examples
///
/// ```
/// use real_cluster::{partition, ClusterSpec, DeviceMesh};
///
/// let cluster = ClusterSpec::h100(2);
/// let node1 = DeviceMesh::whole_nodes(&cluster, 1, 1).unwrap();
/// let inside = partition::meshes_within(&cluster, &node1);
/// // One node yields the usual 15 meshes (14 sub-node slices + itself).
/// assert_eq!(inside.len(), 15);
/// assert!(inside.iter().all(|m| node1.contains_mesh(m)));
/// ```
pub fn meshes_within(cluster: &ClusterSpec, allocation: &DeviceMesh) -> Vec<DeviceMesh> {
    DeviceMesh::enumerate_within(cluster, allocation)
}

/// The §4 mesh enumeration restricted to meshes whose GPUs are all *free*
/// under a per-GPU occupancy overlay (`free[g]` is `true` when `GpuId(g)`
/// is unleased) — the serving loop's live free-capacity view. Same order as
/// the full enumeration, so admission probes are bit-reproducible.
///
/// # Examples
///
/// ```
/// use real_cluster::{partition, ClusterSpec};
///
/// let cluster = ClusterSpec::h100(2);
/// // Node 0 leased out: only node-1 meshes remain.
/// let mut free = vec![true; 16];
/// for g in 0..8 { free[g] = false; }
/// let meshes = partition::free_meshes(&cluster, &free);
/// assert_eq!(meshes.len(), 15);
/// assert!(meshes.iter().all(|m| m.gpus().all(|g| g.0 >= 8)));
/// ```
///
/// # Panics
///
/// Panics if `free` is shorter than the cluster's GPU count.
pub fn free_meshes(cluster: &ClusterSpec, free: &[bool]) -> Vec<DeviceMesh> {
    assert!(
        free.len() >= cluster.total_gpus() as usize,
        "free overlay must cover every GPU"
    );
    DeviceMesh::enumerate(cluster)
        .into_iter()
        .filter(|m| m.gpus().all(|g| free[g.0 as usize]))
        .collect()
}

/// Enumerates every assignment of one allocation per tenant with pairwise
/// disjoint picks, where `options[i]` lists tenant `i`'s feasible candidate
/// allocations.
///
/// The depth-first enumeration is deterministic: splits are emitted in
/// lexicographic order of per-tenant option indices, and at most `cap`
/// splits are returned (the prefix of that order), so the top-level
/// allocation search is reproducible and bounded even on large clusters.
pub fn enumerate_splits(options: &[Vec<DeviceMesh>], cap: usize) -> Vec<Vec<DeviceMesh>> {
    let mut out = Vec::new();
    if options.is_empty() || cap == 0 {
        return out;
    }
    let mut picked: Vec<DeviceMesh> = Vec::with_capacity(options.len());
    dfs(options, cap, &mut picked, &mut out);
    out
}

fn dfs(
    options: &[Vec<DeviceMesh>],
    cap: usize,
    picked: &mut Vec<DeviceMesh>,
    out: &mut Vec<Vec<DeviceMesh>>,
) {
    if out.len() >= cap {
        return;
    }
    let depth = picked.len();
    if depth == options.len() {
        out.push(picked.clone());
        return;
    }
    for candidate in &options[depth] {
        if picked.iter().any(|m| m.overlaps(candidate)) {
            continue;
        }
        picked.push(*candidate);
        dfs(options, cap, picked, out);
        picked.pop();
        if out.len() >= cap {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meshes_within_full_is_whole_enumeration() {
        let c = ClusterSpec::h100(2);
        let full = DeviceMesh::full(&c);
        assert_eq!(
            meshes_within(&c, &full).len(),
            DeviceMesh::enumerate(&c).len()
        );
    }

    #[test]
    fn meshes_within_sub_node_allocation() {
        let c = ClusterSpec::h100(1);
        let half = DeviceMesh::sub_node(&c, 0, 0, 4).unwrap();
        let inside = meshes_within(&c, &half);
        // Widths 1 (4), 2 (2), 4 (1) inside gpus 0..4.
        assert_eq!(inside.len(), 7);
        assert!(inside.iter().all(|m| half.contains_mesh(m)));
    }

    #[test]
    fn free_meshes_tracks_the_occupancy_overlay() {
        let c = ClusterSpec::h100(2);
        let all_free = vec![true; 16];
        assert_eq!(
            free_meshes(&c, &all_free),
            DeviceMesh::enumerate(&c),
            "empty overlay is the full enumeration, order included"
        );
        let mut half = vec![true; 16];
        for slot in half.iter_mut().take(8) {
            *slot = false;
        }
        let node1 = DeviceMesh::whole_nodes(&c, 1, 1).unwrap();
        assert_eq!(free_meshes(&c, &half), meshes_within(&c, &node1));
        assert!(free_meshes(&c, &[false; 16]).is_empty());
    }

    #[test]
    fn enumerate_splits_two_tenants_two_nodes() {
        let c = ClusterSpec::h100(2);
        let node0 = DeviceMesh::whole_nodes(&c, 0, 1).unwrap();
        let node1 = DeviceMesh::whole_nodes(&c, 1, 1).unwrap();
        let options = vec![vec![node0, node1], vec![node0, node1]];
        let splits = enumerate_splits(&options, 1 << 20);
        assert_eq!(splits, vec![vec![node0, node1], vec![node1, node0]]);
    }

    #[test]
    fn enumerate_splits_cap_is_deterministic_prefix() {
        let c = ClusterSpec::h100(4);
        let per_node: Vec<DeviceMesh> = (0..4)
            .map(|n| DeviceMesh::whole_nodes(&c, n, 1).unwrap())
            .collect();
        let options = vec![per_node.clone(), per_node.clone(), per_node.clone()];
        let all = enumerate_splits(&options, usize::MAX);
        assert_eq!(all.len(), 24); // 4 * 3 * 2 ordered disjoint picks
        let capped = enumerate_splits(&options, 5);
        assert_eq!(capped, all[..5].to_vec());
    }

    #[test]
    fn enumerate_splits_infeasible_overlap_yields_nothing() {
        let c = ClusterSpec::h100(1);
        let full = DeviceMesh::full(&c);
        let options = vec![vec![full], vec![full]];
        assert!(enumerate_splits(&options, 100).is_empty());
    }

    #[test]
    fn enumerate_splits_empty_inputs() {
        assert!(enumerate_splits(&[], 10).is_empty());
        let c = ClusterSpec::h100(1);
        let full = DeviceMesh::full(&c);
        assert!(enumerate_splits(&[vec![full]], 0).is_empty());
        // A tenant with no feasible option kills every split.
        assert!(enumerate_splits(&[vec![full], vec![]], 10).is_empty());
    }
}
