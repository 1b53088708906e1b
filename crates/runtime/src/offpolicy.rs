//! Async off-policy execution: staleness-bounded generation/training
//! overlap.
//!
//! The synchronous master loop ([`RuntimeEngine::run`]) chains every call
//! of a model to the model's previous call — generation for iteration `i`
//! waits for the training step of iteration `i - 1`. That edge is a
//! *policy* choice, not a dataflow necessity: off-policy RLHF variants
//! tolerate generating with parameters a few versions old. This mode
//! relaxes exactly that edge under a user-set staleness bound `s`: each
//! call [`real_dataflow::DataflowGraph::snapshot_sources`] relaxes (the
//! generation calls of trainable models) samples the snapshot its source
//! call produced in iteration `i - 1 - s`, or the initial weights while
//! `i <= s`; every other call keeps the fresh chain among its model's
//! non-relaxed calls, and data dependencies are untouched. When the plan
//! places generation and training on disjoint meshes, generation for
//! iteration `i + 1` then runs during training for iteration `i`. The
//! estimator prices the same schedule
//! ([`real_estimator::Estimator::with_staleness`]).
//!
//! # Snapshot shipment
//!
//! Publishing the snapshot to the generation mesh reuses the engine's
//! copy-engine convention for data transfers: only the *consumer* mesh is
//! occupied, the trainer's GPUs serve the send from copy engines without
//! stalling the next training step. (Routing the snapshot through
//! [`crate::realloc::execute_realloc`] would enqueue it behind the
//! in-flight training step on the trainer's FIFO queues and serialize the
//! very calls this mode exists to overlap.) The shipped volume is the full
//! parameter footprint of the generation layout
//! ([`crate::realloc::realloc_volume`]), charged as
//! [`real_sim::Category::Realloc`].
//!
//! # Staleness accounting
//!
//! With bound `s`, generation for iteration `i` gates on version
//! `v = i - 1 - s`. Its *observed* staleness is the number of training
//! steps newer than `v` that had already completed when generation
//! dispatched — the freshness the run gave up, `<= s` by construction.
//! [`crate::report::AsyncStats`] reports the bound, the relaxed-call
//! count, the observed maximum, and the wall seconds during which
//! generation and training were simultaneously in flight.

use crate::driver::run_solo;
use crate::master::{RunError, RuntimeEngine};
use crate::report::{CallTiming, RunReport};
use real_dataflow::{CallType, ExecutionPlan};
use real_obs::profile::intersection_len;
use std::collections::HashMap;

impl RuntimeEngine {
    /// Executes `plan` for `iterations` RLHF iterations with async
    /// off-policy parameter edges under `staleness` (see the module docs).
    /// `staleness == 0` keeps generation one training step behind — the
    /// synchronous schedule's freshness with the snapshot shipped
    /// copy-engine style.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::OutOfMemory`] when the plan does not fit device
    /// memory (unless `skip_mem_check` is set), and
    /// [`RunError::NoIterations`] when `iterations == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use real_cluster::{ClusterSpec, DeviceMesh};
    /// use real_dataflow::{algo, CallAssignment, ExecutionPlan};
    /// use real_model::{ModelSpec, ParallelStrategy};
    /// use real_runtime::{EngineConfig, RuntimeEngine};
    ///
    /// let cluster = ClusterSpec::h100(1);
    /// let actor = ModelSpec::llama3_7b();
    /// let graph = algo::ppo(&actor, &actor.critic(), &algo::RlhfConfig::instruct_gpt(32));
    /// let a = CallAssignment::new(
    ///     DeviceMesh::full(&cluster),
    ///     ParallelStrategy::new(1, 8, 1, 4).unwrap(),
    /// ).unwrap();
    /// let plan = ExecutionPlan::new(&graph, &cluster, vec![a; graph.n_calls()]).unwrap();
    /// let engine = RuntimeEngine::new(cluster, graph, EngineConfig::deterministic());
    /// let report = engine.run_async(&plan, 4, 1).unwrap();
    /// assert!(report.async_stats.relaxed_calls > 0);
    /// assert!(report.async_stats.max_observed_staleness <= 1);
    /// ```
    pub fn run_async(
        &self,
        plan: &ExecutionPlan,
        iterations: usize,
        staleness: u32,
    ) -> Result<RunReport, RunError> {
        run_solo(self, plan, iterations, Some(staleness), None)
    }
}

/// Wall seconds during which at least one [`CallType::Generate`] call and
/// at least one [`CallType::TrainStep`] call were simultaneously in
/// flight, from the report's call timings.
pub(crate) fn gen_train_overlap(
    graph: &real_dataflow::DataflowGraph,
    timings: &[CallTiming],
) -> f64 {
    let kind_of: HashMap<&str, &CallType> = graph
        .calls()
        .iter()
        .map(|c| (c.call_name.as_str(), &c.call_type))
        .collect();
    let mut gen: Vec<(f64, f64)> = Vec::new();
    let mut train: Vec<(f64, f64)> = Vec::new();
    for t in timings {
        match kind_of.get(t.call_name.as_str()) {
            Some(CallType::Generate { .. }) => gen.push((t.start, t.end)),
            Some(CallType::TrainStep { .. }) => train.push((t.start, t.end)),
            _ => {}
        }
    }
    intersection_len(&merge_intervals(gen), &merge_intervals(train))
}

/// Sorts and merges overlapping intervals into a disjoint union.
fn merge_intervals(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

#[cfg(test)] // names the unit tests take via `super::*`
use real_sim::Category;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use real_cluster::{ClusterSpec, DeviceMesh};
    use real_dataflow::{algo, CallAssignment, DataflowGraph};
    use real_model::{ModelSpec, ParallelStrategy};

    fn ppo_graph(batch: u64) -> DataflowGraph {
        let actor = ModelSpec::llama3_7b();
        algo::ppo(
            &actor,
            &actor.critic(),
            &algo::RlhfConfig::instruct_gpt(batch),
        )
    }

    /// Gen of the actor on node 0's first half, everything else on the
    /// second half: disjoint meshes so the relaxed edge can overlap.
    fn split_plan(cluster: &ClusterSpec, graph: &DataflowGraph) -> ExecutionPlan {
        let gen_mesh = DeviceMesh::sub_node(cluster, 0, 0, 4).unwrap();
        let rest_mesh = DeviceMesh::sub_node(cluster, 0, 4, 4).unwrap();
        let s = ParallelStrategy::new(1, 4, 1, 4).unwrap();
        let assignments: Vec<CallAssignment> = graph
            .calls()
            .iter()
            .map(|c| {
                let mesh = if matches!(c.call_type, CallType::Generate { .. }) {
                    gen_mesh
                } else {
                    rest_mesh
                };
                CallAssignment::new(mesh, s).unwrap()
            })
            .collect();
        ExecutionPlan::new(graph, cluster, assignments).unwrap()
    }

    fn engine(graph: DataflowGraph, cluster: &ClusterSpec) -> RuntimeEngine {
        RuntimeEngine::new(
            cluster.clone(),
            graph,
            EngineConfig::deterministic().with_cuda_graph(true),
        )
    }

    #[test]
    fn async_run_is_deterministic() {
        let cluster = ClusterSpec::h100(1);
        let graph = ppo_graph(16);
        let plan = split_plan(&cluster, &graph);
        let eng = engine(graph, &cluster);
        let a = eng.run_async(&plan, 4, 1).unwrap();
        let b = eng.run_async(&plan, 4, 1).unwrap();
        assert_eq!(a.timings, b.timings);
        assert_eq!(a.async_stats, b.async_stats);
        assert_eq!(a.total_time, b.total_time);
    }

    #[test]
    fn disjoint_meshes_overlap_gen_and_train() {
        let cluster = ClusterSpec::h100(1);
        let graph = ppo_graph(16);
        let plan = split_plan(&cluster, &graph);
        let eng = engine(graph, &cluster);
        let sync = eng.run(&plan, 6).unwrap();
        let asy = eng.run_async(&plan, 6, 1).unwrap();
        assert!(sync.async_stats.is_empty());
        assert!(!asy.async_stats.is_empty());
        assert!(
            asy.async_stats.gen_train_overlap_secs > 0.0,
            "expected overlap, got {:?}",
            asy.async_stats
        );
        assert!(
            asy.total_time < sync.total_time,
            "async {} should beat sync {}",
            asy.total_time,
            sync.total_time
        );
    }

    #[test]
    fn staleness_bound_gates_generation() {
        let cluster = ClusterSpec::h100(1);
        let graph = ppo_graph(16);
        let plan = split_plan(&cluster, &graph);
        let eng = engine(graph.clone(), &cluster);
        for s in [0u32, 1, 2] {
            let report = eng.run_async(&plan, 6, s).unwrap();
            assert!(report.async_stats.max_observed_staleness <= s);
            // gen(i) never starts before train(i-1-s) completed.
            let train_end = |iter: usize| {
                report
                    .timings
                    .iter()
                    .filter(|t| t.call_name == "actor_train" && t.iter == iter)
                    .map(|t| t.end)
                    .fold(0.0, f64::max)
            };
            for t in &report.timings {
                if t.call_name == "actor_gen" && t.iter as i64 - 1 - i64::from(s) >= 0 {
                    let gate = train_end(t.iter - 1 - s as usize);
                    assert!(
                        t.start >= gate,
                        "s={s}: gen({}) started {} before train gate {}",
                        t.iter,
                        t.start,
                        gate
                    );
                }
            }
        }
    }

    #[test]
    fn stale_snapshot_broadcast_covers_draft_weights() {
        // Speculative generation in an async run ships the draft's weights
        // to the draft mesh alongside the target snapshot: the run stays
        // deterministic, draft/verify spans appear, and the extra shipment
        // charges more Realloc time than the same speculative plan run
        // synchronously (which reallocates but never snapshots).
        let cluster = ClusterSpec::h100(1);
        let graph = ppo_graph(16);
        let plan = split_plan(&cluster, &graph);
        let gen = graph.find("actor_gen").unwrap();
        let choice = real_dataflow::SpecChoice {
            config: real_model::SpecDecodeConfig {
                draft_model: real_model::ModelSpec::llama3_1b(),
                speculation_len: 4,
                acceptance_curve: real_model::specdec::AcceptanceCurve::Constant(0.8),
            },
            assignment: CallAssignment::new(
                DeviceMesh::sub_node(&cluster, 0, 0, 2).unwrap(),
                ParallelStrategy::new(1, 2, 1, 1).unwrap(),
            )
            .unwrap(),
        };
        let spec_plan = plan.with_spec(gen, Some(choice)).unwrap();
        let eng = RuntimeEngine::new(
            cluster.clone(),
            graph,
            EngineConfig {
                trace_capacity: 1 << 16,
                ..EngineConfig::deterministic().with_cuda_graph(true)
            },
        );
        let a = eng.run_async(&spec_plan, 4, 1).unwrap();
        let b = eng.run_async(&spec_plan, 4, 1).unwrap();
        assert_eq!(a.timings, b.timings);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.trace.events(), b.trace.events());
        let labels: Vec<&str> = a.trace.events().iter().map(|e| e.label.as_str()).collect();
        assert!(labels.contains(&"spec_draft_decode"), "{labels:?}");
        let realloc = |r: &RunReport| {
            r.category_totals
                .iter()
                .find(|(k, _)| *k == Category::Realloc)
                .map_or(0.0, |(_, v)| *v)
        };
        let plain_async = eng.run_async(&plan, 4, 1).unwrap();
        assert!(
            realloc(&a) > realloc(&plain_async),
            "draft snapshot must charge extra Realloc: {} vs {}",
            realloc(&a),
            realloc(&plain_async)
        );
    }

    #[test]
    fn tighter_staleness_is_never_faster() {
        let cluster = ClusterSpec::h100(1);
        let graph = ppo_graph(16);
        let plan = split_plan(&cluster, &graph);
        let eng = engine(graph, &cluster);
        let t0 = eng.run_async(&plan, 6, 0).unwrap().total_time;
        let t2 = eng.run_async(&plan, 6, 2).unwrap().total_time;
        assert!(t2 <= t0 + 1e-9, "s=2 ({t2}) slower than s=0 ({t0})");
    }

    #[test]
    fn same_mesh_everywhere_matches_sync_makespan() {
        // On a single shared mesh the relaxed edge buys nothing: requests
        // dispatch earlier but queue on the same FIFO timelines, and no
        // snapshot shipment runs (same assignment), so the realized
        // schedule is the synchronous one.
        let cluster = ClusterSpec::h100(1);
        let graph = ppo_graph(16);
        let a = CallAssignment::new(
            DeviceMesh::full(&cluster),
            ParallelStrategy::new(1, 8, 1, 4).unwrap(),
        )
        .unwrap();
        let plan = ExecutionPlan::new(&graph, &cluster, vec![a; graph.n_calls()]).unwrap();
        let eng = engine(graph, &cluster);
        let sync = eng.run(&plan, 3).unwrap();
        let asy = eng.run_async(&plan, 3, 1).unwrap();
        // Early dispatch hides at most the RPC latency per relaxed call;
        // the GPU schedule itself is unchanged.
        assert!(asy.total_time <= sync.total_time);
        assert!(sync.total_time - asy.total_time < 1e-2);
        assert!(asy.total_time > 0.0);
    }

    #[test]
    fn interval_helpers_merge_and_intersect() {
        let merged = merge_intervals(vec![(3.0, 4.0), (0.0, 1.0), (0.5, 2.0)]);
        assert_eq!(merged, vec![(0.0, 2.0), (3.0, 4.0)]);
        let len = intersection_len(&[(0.0, 2.0), (3.0, 4.0)], &[(1.0, 3.5)]);
        assert!((len - 1.5).abs() < 1e-12);
    }
}
