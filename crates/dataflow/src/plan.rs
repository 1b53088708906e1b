//! Execution plans (§4): the assignment of a device mesh and a
//! parallelization strategy to every model function call of one iteration.

use crate::call::CallId;
use crate::graph::DataflowGraph;
use crate::speculation::SpecChoice;
use real_cluster::{ClusterSpec, DeviceMesh};
use real_model::ParallelStrategy;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One call's resources: where it runs and how it parallelizes.
///
/// `Eq + Hash` (both components are plain integers) so assignments can key
/// memoization tables in the estimator's fast pricing path; they order by
/// mesh, then strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CallAssignment {
    /// The device mesh executing the call.
    pub mesh: DeviceMesh,
    /// The 3D strategy plus micro-batch count.
    pub strategy: ParallelStrategy,
}

impl CallAssignment {
    /// Creates an assignment, checking that the strategy exactly fills the
    /// mesh (the paper prunes under-filled meshes as guaranteed idle time).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::ShapeMismatch`] when `dp·tp·pp != |mesh|`.
    pub fn new(mesh: DeviceMesh, strategy: ParallelStrategy) -> Result<Self, PlanError> {
        if strategy.world_size() != mesh.n_gpus() {
            return Err(PlanError::ShapeMismatch {
                world: strategy.world_size(),
                mesh_gpus: mesh.n_gpus(),
            });
        }
        Ok(Self { mesh, strategy })
    }

    /// Whether TP collectives stay on NVLink: TP groups map to consecutive
    /// ranks, so they stay within a node iff `tp` fits the mesh's per-node
    /// width.
    pub fn tp_within_node(&self) -> bool {
        self.strategy.tp() <= self.mesh.gpu_width()
    }

    /// Whether DP gradient all-reduces stay within a node (each DP group
    /// spans `dp·tp` consecutive ranks).
    pub fn dp_within_node(&self) -> bool {
        self.strategy.dp() * self.strategy.tp() <= self.mesh.gpu_width()
    }

    /// Whether pipeline-stage boundaries stay within a node. Conservative:
    /// true only when the whole strategy fits one node.
    pub fn pp_within_node(&self) -> bool {
        self.mesh.n_nodes() == 1
    }
}

impl fmt::Display for CallAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.strategy, self.mesh)
    }
}

/// Errors from building or validating an [`ExecutionPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The strategy's world size differs from the mesh size.
    ShapeMismatch {
        /// `dp·tp·pp` of the offending strategy.
        world: u32,
        /// GPUs in the offending mesh.
        mesh_gpus: u32,
    },
    /// Number of assignments differs from the graph's call count.
    WrongLength {
        /// Assignments provided.
        got: usize,
        /// Calls in the graph.
        expected: usize,
    },
    /// A strategy degree is unsupported by the call's model or workload.
    Unsupported {
        /// Offending call.
        call: CallId,
        /// Human-readable reason.
        reason: String,
    },
    /// A mesh does not belong to the given cluster.
    ForeignMesh(CallId),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ShapeMismatch { world, mesh_gpus } => {
                write!(f, "strategy world {world} != mesh size {mesh_gpus}")
            }
            PlanError::WrongLength { got, expected } => {
                write!(f, "plan has {got} assignments, graph has {expected} calls")
            }
            PlanError::Unsupported { call, reason } => {
                write!(f, "unsupported assignment for {call}: {reason}")
            }
            PlanError::ForeignMesh(c) => write!(f, "mesh of {c} is not within the cluster"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A complete execution plan: one [`CallAssignment`] per graph call, plus
/// an optional speculative-decoding choice per generation call.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    assignments: Vec<CallAssignment>,
    /// Per-call speculation choices. Either empty (no speculation anywhere —
    /// the default) or exactly `assignments.len()` long.
    spec: Vec<Option<SpecChoice>>,
}

// Hand-written serde: the `spec` member is omitted when empty, so
// speculation-free plans serialize byte-identically to pre-speculation
// plans, and pre-speculation JSON (no `spec` key) still deserializes.
impl Serialize for ExecutionPlan {
    fn to_value(&self) -> serde::Value {
        let mut obj = vec![("assignments".to_string(), self.assignments.to_value())];
        if !self.spec.is_empty() {
            obj.push(("spec".to_string(), self.spec.to_value()));
        }
        serde::Value::Object(obj)
    }
}

impl Deserialize for ExecutionPlan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let assignments = Vec::<CallAssignment>::from_value(
            v.get("assignments")
                .ok_or_else(|| serde::Error::custom("plan missing `assignments`"))?,
        )?;
        let spec = match v.get("spec") {
            Some(s) => Vec::<Option<SpecChoice>>::from_value(s)?,
            None => Vec::new(),
        };
        if !spec.is_empty() && spec.len() != assignments.len() {
            return Err(serde::Error::custom(format!(
                "plan has {} spec entries for {} assignments",
                spec.len(),
                assignments.len()
            )));
        }
        Ok(Self { assignments, spec })
    }
}

impl ExecutionPlan {
    /// Builds a plan and validates it against the workflow and cluster.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] when the assignment list length mismatches
    /// the graph, a mesh lies outside the cluster, a TP degree exceeds the
    /// model's KV-head bound, a PP degree exceeds the layer count, or a DP
    /// degree exceeds the call's global batch.
    pub fn new(
        graph: &DataflowGraph,
        cluster: &ClusterSpec,
        assignments: Vec<CallAssignment>,
    ) -> Result<Self, PlanError> {
        if assignments.len() != graph.n_calls() {
            return Err(PlanError::WrongLength {
                got: assignments.len(),
                expected: graph.n_calls(),
            });
        }
        for (i, a) in assignments.iter().enumerate() {
            let id = CallId(i);
            let call = graph.call(id);
            let mesh_end_node = a.mesh.node_start() + a.mesh.n_nodes();
            if mesh_end_node > cluster.n_nodes || a.mesh.gpus_per_node() != cluster.gpus_per_node {
                return Err(PlanError::ForeignMesh(id));
            }
            let s = &a.strategy;
            if s.world_size() != a.mesh.n_gpus() {
                return Err(PlanError::ShapeMismatch {
                    world: s.world_size(),
                    mesh_gpus: a.mesh.n_gpus(),
                });
            }
            if u64::from(s.tp()) > call.model.max_tp() {
                return Err(PlanError::Unsupported {
                    call: id,
                    reason: format!("tp {} exceeds model max_tp {}", s.tp(), call.model.max_tp()),
                });
            }
            if u64::from(s.pp()) > call.model.n_layers {
                return Err(PlanError::Unsupported {
                    call: id,
                    reason: format!("pp {} exceeds {} layers", s.pp(), call.model.n_layers),
                });
            }
            if u64::from(s.dp()) > call.call_type.batch() {
                return Err(PlanError::Unsupported {
                    call: id,
                    reason: format!(
                        "dp {} exceeds global batch {}",
                        s.dp(),
                        call.call_type.batch()
                    ),
                });
            }
        }
        Ok(Self {
            assignments,
            spec: Vec::new(),
        })
    }

    /// The assignment of a call.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn assignment(&self, id: CallId) -> &CallAssignment {
        &self.assignments[id.0]
    }

    /// All assignments in call order.
    pub fn assignments(&self) -> &[CallAssignment] {
        &self.assignments
    }

    /// Replaces one call's assignment (the MCMC transition), revalidating
    /// only the local shape constraint.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::ShapeMismatch`] if the new assignment is
    /// internally inconsistent.
    pub fn with_assignment(&self, id: CallId, a: CallAssignment) -> Result<Self, PlanError> {
        if a.strategy.world_size() != a.mesh.n_gpus() {
            return Err(PlanError::ShapeMismatch {
                world: a.strategy.world_size(),
                mesh_gpus: a.mesh.n_gpus(),
            });
        }
        let mut next = self.clone();
        next.assignments[id.0] = a;
        Ok(next)
    }

    /// Whether two calls are placed on overlapping GPU sets (they must then
    /// serialize — the constraint in Algorithm 1).
    pub fn overlapping(&self, a: CallId, b: CallId) -> bool {
        self.assignments[a.0]
            .mesh
            .overlaps(&self.assignments[b.0].mesh)
    }

    /// The speculative-decoding choice of a call, if any.
    pub fn spec_choice(&self, id: CallId) -> Option<&SpecChoice> {
        self.spec.get(id.0).and_then(Option::as_ref)
    }

    /// Whether any call in the plan uses speculative decoding.
    pub fn has_speculation(&self) -> bool {
        self.spec.iter().any(Option::is_some)
    }

    /// All calls with a speculation choice, in call order.
    pub fn spec_choices(&self) -> impl Iterator<Item = (CallId, &SpecChoice)> + '_ {
        self.spec
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|c| (CallId(i), c)))
    }

    /// Sets or clears one call's speculation choice (the MCMC speculation
    /// transition). Clearing the last active choice normalizes back to the
    /// empty (speculation-free) representation, so toggling speculation on
    /// and off round-trips to a plan equal to the original.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::Unsupported`] when the choice fails
    /// [`SpecChoice::validate`].
    pub fn with_spec(&self, id: CallId, choice: Option<SpecChoice>) -> Result<Self, PlanError> {
        if let Some(c) = &choice {
            c.validate()
                .map_err(|reason| PlanError::Unsupported { call: id, reason })?;
        }
        let mut next = self.clone();
        if next.spec.is_empty() {
            next.spec = vec![None; next.assignments.len()];
        }
        next.spec[id.0] = choice;
        if next.spec.iter().all(Option::is_none) {
            next.spec.clear();
        }
        Ok(next)
    }

    /// Renders the plan as a table like the paper's Tables 2–5.
    pub fn render(&self, graph: &DataflowGraph) -> String {
        let mut t = real_util::Table::new(vec![
            "call",
            "device mesh",
            "TP",
            "PP",
            "DP",
            "#micro-batches",
        ]);
        for (id, call) in graph.iter() {
            let a = &self.assignments[id.0];
            t.row(vec![
                call.call_name.clone(),
                a.mesh.to_string(),
                a.strategy.tp().to_string(),
                a.strategy.pp().to_string(),
                a.strategy.dp().to_string(),
                a.strategy.micro_batches().to_string(),
            ]);
        }
        let mut out = t.render();
        if self.has_speculation() {
            let mut s = real_util::Table::new(vec!["call", "draft", "k", "draft mesh", "TP/PP/DP"]);
            for (id, c) in self.spec_choices() {
                let st = &c.assignment.strategy;
                s.row(vec![
                    graph.call(id).call_name.clone(),
                    c.config.draft_model.name.clone(),
                    c.config.speculation_len.to_string(),
                    c.assignment.mesh.to_string(),
                    format!("{}/{}/{}", st.tp(), st.pp(), st.dp()),
                ]);
            }
            out.push_str("\nspeculative decoding:\n");
            out.push_str(&s.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{ppo, RlhfConfig};
    use real_model::ModelSpec;

    fn setup() -> (ClusterSpec, DataflowGraph) {
        let cluster = ClusterSpec::h100(2);
        let graph = ppo(
            &ModelSpec::llama3_7b(),
            &ModelSpec::llama3_7b().critic(),
            &RlhfConfig::instruct_gpt(512),
        );
        (cluster, graph)
    }

    fn full_assignment(cluster: &ClusterSpec, dp: u32, tp: u32, pp: u32) -> CallAssignment {
        CallAssignment::new(
            DeviceMesh::full(cluster),
            ParallelStrategy::new(dp, tp, pp, 4).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn assignment_rejects_underfilled_mesh() {
        let cluster = ClusterSpec::h100(2);
        let err = CallAssignment::new(
            DeviceMesh::full(&cluster),
            ParallelStrategy::new(1, 2, 2, 1).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            PlanError::ShapeMismatch {
                world: 4,
                mesh_gpus: 16
            }
        ));
    }

    #[test]
    fn symmetric_plan_validates() {
        let (cluster, graph) = setup();
        let a = full_assignment(&cluster, 2, 8, 1);
        let plan = ExecutionPlan::new(&graph, &cluster, vec![a; graph.n_calls()]).unwrap();
        assert_eq!(plan.assignments().len(), 6);
    }

    #[test]
    fn plan_rejects_wrong_length() {
        let (cluster, graph) = setup();
        let a = full_assignment(&cluster, 2, 8, 1);
        let err = ExecutionPlan::new(&graph, &cluster, vec![a; 3]).unwrap_err();
        assert!(matches!(
            err,
            PlanError::WrongLength {
                got: 3,
                expected: 6
            }
        ));
    }

    #[test]
    fn plan_rejects_tp_beyond_kv_heads() {
        let (cluster, graph) = setup();
        // 7B has 8 KV heads; tp=16 is unsupported.
        let a = full_assignment(&cluster, 1, 16, 1);
        let err = ExecutionPlan::new(&graph, &cluster, vec![a; 6]).unwrap_err();
        assert!(matches!(err, PlanError::Unsupported { .. }), "{err}");
    }

    #[test]
    fn plan_rejects_foreign_mesh() {
        let (_, graph) = setup();
        let big = ClusterSpec::h100(4);
        let small = ClusterSpec::h100(2);
        let a = CallAssignment::new(
            DeviceMesh::whole_nodes(&big, 2, 2).unwrap(),
            ParallelStrategy::new(2, 8, 1, 1).unwrap(),
        )
        .unwrap();
        let err = ExecutionPlan::new(&graph, &small, vec![a; 6]).unwrap_err();
        assert!(matches!(err, PlanError::ForeignMesh(_)));
    }

    #[test]
    fn plan_rejects_dp_beyond_batch() {
        let cluster = ClusterSpec::h100(2);
        let graph = ppo(
            &ModelSpec::llama3_7b(),
            &ModelSpec::llama3_7b().critic(),
            &RlhfConfig::instruct_gpt(8), // tiny batch
        );
        let a = full_assignment(&cluster, 16, 1, 1);
        let err = ExecutionPlan::new(&graph, &cluster, vec![a; 6]).unwrap_err();
        assert!(matches!(err, PlanError::Unsupported { .. }));
    }

    #[test]
    fn locality_queries() {
        let cluster = ClusterSpec::h100(2);
        let a = full_assignment(&cluster, 2, 8, 1);
        assert!(a.tp_within_node());
        assert!(!a.dp_within_node()); // dp*tp = 16 > 8
        assert!(!a.pp_within_node()); // 2 nodes

        let sub = CallAssignment::new(
            DeviceMesh::sub_node(&cluster, 0, 0, 4).unwrap(),
            ParallelStrategy::new(2, 2, 1, 1).unwrap(),
        )
        .unwrap();
        assert!(sub.tp_within_node());
        assert!(sub.dp_within_node());
        assert!(sub.pp_within_node());
    }

    #[test]
    fn with_assignment_replaces_one_call() {
        let (cluster, graph) = setup();
        let a = full_assignment(&cluster, 2, 8, 1);
        let plan = ExecutionPlan::new(&graph, &cluster, vec![a; 6]).unwrap();
        let half = CallAssignment::new(
            DeviceMesh::whole_nodes(&cluster, 0, 1).unwrap(),
            ParallelStrategy::new(1, 8, 1, 2).unwrap(),
        )
        .unwrap();
        let id = graph.find("actor_gen").unwrap();
        let next = plan.with_assignment(id, half).unwrap();
        assert_eq!(next.assignment(id).mesh.n_gpus(), 8);
        // Other calls untouched.
        assert_eq!(
            next.assignment(graph.find("actor_train").unwrap())
                .mesh
                .n_gpus(),
            16
        );
    }

    #[test]
    fn overlap_detection() {
        let (cluster, graph) = setup();
        let left = CallAssignment::new(
            DeviceMesh::whole_nodes(&cluster, 0, 1).unwrap(),
            ParallelStrategy::new(1, 8, 1, 1).unwrap(),
        )
        .unwrap();
        let right = CallAssignment::new(
            DeviceMesh::whole_nodes(&cluster, 1, 1).unwrap(),
            ParallelStrategy::new(1, 8, 1, 1).unwrap(),
        )
        .unwrap();
        let mut assignments = vec![left; 6];
        assignments[5] = right;
        let plan = ExecutionPlan::new(&graph, &cluster, assignments).unwrap();
        assert!(plan.overlapping(CallId(0), CallId(1)));
        assert!(!plan.overlapping(CallId(0), CallId(5)));
    }

    #[test]
    fn render_contains_call_names() {
        let (cluster, graph) = setup();
        let a = full_assignment(&cluster, 2, 8, 1);
        let plan = ExecutionPlan::new(&graph, &cluster, vec![a; 6]).unwrap();
        let table = plan.render(&graph);
        assert!(table.contains("actor_gen"));
        assert!(table.contains("critic_train"));
        assert!(table.contains("node[0-1]"));
    }

    #[test]
    fn plan_round_trips_through_serde() {
        let (cluster, graph) = setup();
        let a = full_assignment(&cluster, 2, 8, 1);
        let plan = ExecutionPlan::new(&graph, &cluster, vec![a; 6]).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: ExecutionPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    fn spec_choice(cluster: &ClusterSpec) -> crate::speculation::SpecChoice {
        crate::speculation::SpecChoice {
            config: real_model::SpecDecodeConfig {
                draft_model: ModelSpec::llama3_1b(),
                speculation_len: 5,
                acceptance_curve: real_model::AcceptanceCurve::Constant(0.8),
            },
            assignment: CallAssignment::new(
                DeviceMesh::sub_node(cluster, 0, 0, 2).unwrap(),
                ParallelStrategy::new(1, 2, 1, 1).unwrap(),
            )
            .unwrap(),
        }
    }

    #[test]
    fn speculation_free_plan_serializes_without_spec_field() {
        let (cluster, graph) = setup();
        let a = full_assignment(&cluster, 2, 8, 1);
        let plan = ExecutionPlan::new(&graph, &cluster, vec![a; 6]).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        assert!(!json.contains("spec"), "inert plan leaked spec: {json}");
        // Pre-speculation JSON (no `spec` key) still deserializes.
        let back: ExecutionPlan = serde_json::from_str(&json).unwrap();
        assert!(!back.has_speculation());
    }

    #[test]
    fn with_spec_sets_and_clears() {
        let (cluster, graph) = setup();
        let a = full_assignment(&cluster, 2, 8, 1);
        let plan = ExecutionPlan::new(&graph, &cluster, vec![a; 6]).unwrap();
        let id = graph.find("actor_gen").unwrap();
        let specced = plan.with_spec(id, Some(spec_choice(&cluster))).unwrap();
        assert!(specced.has_speculation());
        assert_eq!(specced.spec_choices().count(), 1);
        assert_eq!(specced.spec_choice(id).unwrap().config.speculation_len, 5);
        // Toggling back off normalizes to a plan equal to the original.
        let off = specced.with_spec(id, None).unwrap();
        assert_eq!(off, plan);
        assert!(!off.has_speculation());
    }

    #[test]
    fn with_spec_rejects_invalid_choice() {
        let (cluster, graph) = setup();
        let a = full_assignment(&cluster, 2, 8, 1);
        let plan = ExecutionPlan::new(&graph, &cluster, vec![a; 6]).unwrap();
        let mut bad = spec_choice(&cluster);
        bad.config.speculation_len = 0;
        let err = plan.with_spec(CallId(0), Some(bad)).unwrap_err();
        assert!(matches!(err, PlanError::Unsupported { .. }));
    }

    #[test]
    fn speculative_plan_round_trips_and_renders() {
        let (cluster, graph) = setup();
        let a = full_assignment(&cluster, 2, 8, 1);
        let plan = ExecutionPlan::new(&graph, &cluster, vec![a; 6])
            .unwrap()
            .with_spec(
                graph.find("actor_gen").unwrap(),
                Some(spec_choice(&cluster)),
            )
            .unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: ExecutionPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        let table = plan.render(&graph);
        assert!(table.contains("speculative decoding"), "{table}");
        assert!(table.contains("llama3-1b"), "{table}");
    }
}
