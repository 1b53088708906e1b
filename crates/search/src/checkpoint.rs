//! Checkpoint/restore of MCMC search state, and projection of an incumbent
//! plan onto a (possibly shrunken) search space.
//!
//! Long searches can be paused and resumed across processes: the chain's
//! incumbent/best plans, penalized costs, RNG position
//! ([`real_util::RngState`]), and step count round-trip through JSON. The
//! re-planning loop also uses [`project_onto`] to warm-start a re-search
//! from the plan that was running when a fault hit, after the fault has
//! removed some meshes from the space.

use crate::space::SearchSpace;
use real_dataflow::{CallAssignment, CallId, ExecutionPlan};
use real_estimator::Estimator;
use real_util::RngState;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// The resumable state of one MCMC chain, captured at the end of the chain
/// loop (the coordinate-descent polish refines only the returned best plan,
/// never the chain position, so resuming replays exactly the draws the
/// original chain would have made next).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainState {
    /// The `McmcConfig::seed` the chain was started with.
    pub seed: u64,
    /// The step budget the chain was annealing against when captured.
    pub max_steps: u64,
    /// The chain's current plan (the Metropolis walker).
    pub incumbent: ExecutionPlan,
    /// Penalized §5.2 cost of the incumbent.
    pub incumbent_cost: f64,
    /// Best plan seen so far (by penalized cost).
    pub best: ExecutionPlan,
    /// Penalized cost of the best plan.
    pub best_cost: f64,
    /// RNG stream position.
    pub rng: RngState,
    /// Steps taken.
    pub steps: u64,
    /// Accepted transitions.
    pub accepted: u64,
}

/// A saved search: resumable [`ChainState`] plus the improvement trace, as
/// written by `real plan --checkpoint` and consumed by `real replan --from`.
///
/// # Examples
///
/// Searching, checkpointing to disk, and resuming with a larger budget:
///
/// ```
/// use real_cluster::ClusterSpec;
/// use real_dataflow::algo::{ppo, RlhfConfig};
/// use real_estimator::Estimator;
/// use real_model::ModelSpec;
/// use real_profiler::{ProfileConfig, Profiler};
/// use real_search::{resume, search, McmcConfig, PruneLevel, SearchCheckpoint, SearchSpace};
/// use std::time::Duration;
///
/// let cluster = ClusterSpec::h100(1);
/// let actor = ModelSpec::llama3_7b();
/// let graph = ppo(&actor, &actor.critic(), &RlhfConfig::instruct_gpt(64));
/// let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 1);
/// let profiles = vec![profiler.profile(&actor), profiler.profile(&actor.critic())];
/// let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
/// let space = SearchSpace::build(&cluster, &graph, PruneLevel::Aggressive);
///
/// let cfg = McmcConfig {
///     max_steps: 50,
///     time_limit: Duration::from_secs(5),
///     ..Default::default()
/// };
/// let result = search(&est, &space, &cfg);
///
/// let path = std::env::temp_dir().join("real-doc-checkpoint.json");
/// result.checkpoint().save(&path).unwrap();
/// let restored = SearchCheckpoint::load(&path).unwrap();
/// assert_eq!(restored.chain, result.chain);
///
/// // Resume the same chain against a doubled step budget.
/// let more = McmcConfig { max_steps: 100, ..cfg };
/// let resumed = resume(&est, &space, &more, &restored);
/// assert!(resumed.steps >= restored.chain.steps);
/// # std::fs::remove_file(&path).ok();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchCheckpoint {
    /// The resumable chain state.
    pub chain: ChainState,
    /// `(elapsed_secs, best_time_cost)` improvement trace accumulated so
    /// far; resumed searches append to it (elapsed times restart from the
    /// resume instant).
    pub trace: Vec<(f64, f64)>,
}

impl SearchCheckpoint {
    /// Serializes the checkpoint to pretty-printed JSON at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be written.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a checkpoint previously written by [`Self::save`].
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, or `InvalidData` when the file is
    /// not a valid checkpoint.
    pub fn load(path: &Path) -> io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Projects `plan` onto `space`: every assignment already present in its
/// call's option list is kept; any other (e.g. one whose mesh died) is
/// replaced by the *nearest* surviving option — smallest total log2 shape
/// change across dp/tp/pp/micro-batches plus a mesh-locality term (same
/// mesh 0, overlapping 1, disjoint 2). This is the warm start a re-plan
/// seeds its chain with.
///
/// # Panics
///
/// Panics if `space` was built for a different graph than `plan`.
pub fn project_onto(plan: &ExecutionPlan, est: &Estimator, space: &SearchSpace) -> ExecutionPlan {
    let assignments: Vec<CallAssignment> = (0..space.n_calls())
        .map(|call| {
            let from = plan.assignment(CallId(call));
            let opts = space.options(call);
            if opts.contains(from) {
                return *from;
            }
            let mut nearest = opts[0];
            let mut best_d = assignment_distance(from, &nearest);
            for opt in &opts[1..] {
                let d = assignment_distance(from, opt);
                if d < best_d {
                    nearest = *opt;
                    best_d = d;
                }
            }
            nearest
        })
        .collect();
    ExecutionPlan::new(est.graph(), est.cluster(), assignments)
        .expect("projected assignments come from a validated search space")
}

/// Distance between two assignments for projection: log2 shape deltas plus
/// a coarse mesh-locality penalty.
fn assignment_distance(from: &CallAssignment, to: &CallAssignment) -> f64 {
    let shape = |a: u32, b: u32| (f64::from(a).log2() - f64::from(b).log2()).abs();
    let mesh = if to.mesh == from.mesh {
        0.0
    } else if to.mesh.overlaps(&from.mesh) {
        1.0
    } else {
        2.0
    };
    shape(from.strategy.dp(), to.strategy.dp())
        + shape(from.strategy.tp(), to.strategy.tp())
        + shape(from.strategy.pp(), to.strategy.pp())
        + shape(from.strategy.micro_batches(), to.strategy.micro_batches())
        + mesh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::heuristic_plan;
    use crate::mcmc::{resume, search, search_warm, McmcConfig};
    use crate::space::PruneLevel;
    use real_cluster::{ClusterHealth, ClusterSpec, GpuId};
    use real_dataflow::algo::{ppo, RlhfConfig};
    use real_estimator::CostMemo;
    use real_model::ModelSpec;
    use real_profiler::{ProfileConfig, Profiler};
    use std::time::Duration;

    fn setup(nodes: u32, batch: u64) -> (ClusterSpec, Estimator, SearchSpace) {
        let cluster = ClusterSpec::h100(nodes);
        let actor = ModelSpec::llama3_7b();
        let critic = actor.critic();
        let graph = ppo(&actor, &critic, &RlhfConfig::instruct_gpt(batch));
        let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 21);
        let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
        let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
        let space = SearchSpace::build(&cluster, est.graph(), PruneLevel::Aggressive);
        (cluster, est, space)
    }

    fn steps_cfg(seed: u64, max_steps: u64) -> McmcConfig {
        McmcConfig {
            beta: 1.0,
            max_steps,
            time_limit: Duration::from_secs(3600), // bound by steps only
            seed,
            record_trace: true,
        }
    }

    #[test]
    fn checkpoint_round_trips_through_disk() {
        let (_, est, space) = setup(1, 128);
        let result = search(&est, &space, &steps_cfg(3, 300));
        let ckpt = result.checkpoint();
        assert_eq!(ckpt.chain.steps, 300);
        assert_eq!(ckpt.chain.seed, 3);

        let path = std::env::temp_dir().join("real-search-ckpt-test.json");
        ckpt.save(&path).unwrap();
        let loaded = SearchCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, ckpt);
    }

    #[test]
    fn load_rejects_garbage() {
        let path = std::env::temp_dir().join("real-search-ckpt-garbage.json");
        std::fs::write(&path, "not json").unwrap();
        let err = SearchCheckpoint::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn resume_is_deterministic() {
        let (_, est, space) = setup(1, 128);
        let ckpt = search(&est, &space, &steps_cfg(7, 200)).checkpoint();
        let more = steps_cfg(7, 500);
        let a = resume(&est, &space, &more, &ckpt);
        let b = resume(&est, &space, &more, &ckpt);
        assert_eq!(a.best_plan, b.best_plan);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.chain, b.chain);
        assert_eq!(a.steps, 500, "resumed chain runs to the new budget");
    }

    #[test]
    fn resume_never_regresses_the_checkpoint_best() {
        let (_, est, space) = setup(1, 128);
        let ckpt = search(&est, &space, &steps_cfg(11, 200)).checkpoint();
        let resumed = resume(&est, &space, &steps_cfg(11, 600), &ckpt);
        assert!(est.cost(&resumed.best_plan) <= ckpt.chain.best_cost + 1e-9);
        // The carried-over trace is a prefix of the resumed trace.
        assert!(resumed.trace.len() >= ckpt.trace.len());
        assert_eq!(&resumed.trace[..ckpt.trace.len()], &ckpt.trace[..]);
    }

    #[test]
    fn projection_is_identity_within_the_space() {
        let (_, est, space) = setup(1, 128);
        let plan = search(&est, &space, &steps_cfg(13, 300)).best_plan;
        assert_eq!(project_onto(&plan, &est, &space), plan);
    }

    #[test]
    fn projection_moves_dead_mesh_assignments_into_the_space() {
        let (cluster, est, _) = setup(2, 512);
        // Incumbent on the full (2-node) cluster.
        let incumbent = heuristic_plan(&est).unwrap();
        // GPU 0 dies: the full-cluster mesh and all node-0 meshes vanish.
        let mut health = ClusterHealth::healthy(&cluster);
        health.mark_dead(GpuId(0));
        let shrunken = SearchSpace::try_build_on(
            &cluster,
            est.graph(),
            PruneLevel::Aggressive,
            &health.surviving_meshes(),
        )
        .unwrap();
        let projected = project_onto(&incumbent, &est, &shrunken);
        for call in 0..shrunken.n_calls() {
            let a = projected.assignment(CallId(call));
            assert!(shrunken.options(call).contains(a));
            assert!(!a.mesh.contains(GpuId(0)));
        }
    }

    #[test]
    fn warm_start_is_deterministic_and_stays_in_space() {
        let (cluster, est, _) = setup(2, 512);
        let incumbent = heuristic_plan(&est).unwrap();
        let mut health = ClusterHealth::healthy(&cluster);
        health.mark_dead(GpuId(3));
        let shrunken = SearchSpace::try_build_on(
            &cluster,
            est.graph(),
            PruneLevel::Aggressive,
            &health.surviving_meshes(),
        )
        .unwrap();
        let degraded = est.clone().with_health(health);
        let cfg = steps_cfg(17, 400);
        let a = search_warm(&degraded, &shrunken, &cfg, &incumbent, &mut CostMemo::new());
        let b = search_warm(&degraded, &shrunken, &cfg, &incumbent, &mut CostMemo::new());
        assert_eq!(a.best_plan, b.best_plan);
        assert_eq!(a.accepted, b.accepted);
        for call in 0..shrunken.n_calls() {
            assert!(!a.best_plan.assignment(CallId(call)).mesh.contains(GpuId(3)));
        }
    }
}
