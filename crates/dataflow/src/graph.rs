//! The dataflow graph `G = (V, E)` of §4: nodes are model function calls,
//! edges are data dependencies within an iteration plus parameter-version
//! dependencies across consecutive iterations.

use crate::call::{CallId, CallType, ModelFunctionCallDef};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Errors produced when assembling a [`DataflowGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Two calls share a `call_name`.
    DuplicateCall(String),
    /// A data key is produced by more than one call.
    DuplicateOutput(String),
    /// Two calls with the same `model_name` declare different architectures.
    InconsistentModel(String),
    /// The data dependencies contain a cycle.
    Cyclic,
    /// The graph has no calls.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DuplicateCall(n) => write!(f, "duplicate call name: {n}"),
            GraphError::DuplicateOutput(k) => write!(f, "data key produced twice: {k}"),
            GraphError::InconsistentModel(m) => {
                write!(f, "model {m} declared with different architectures")
            }
            GraphError::Cyclic => write!(f, "data dependencies form a cycle"),
            GraphError::Empty => write!(f, "workflow has no function calls"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The per-iteration dataflow template, with intra-iteration data edges and
/// cross-iteration parameter edges.
///
/// Conceptually the paper's `G` concatenates every training iteration; here
/// we store one iteration's template plus the cross-iteration edge set, and
/// consumers (the estimator's Algorithm 1, the runtime engine) unroll as
/// many iterations as they need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataflowGraph {
    calls: Vec<ModelFunctionCallDef>,
    /// `deps[i]` = intra-iteration parents of call `i`.
    deps: Vec<Vec<CallId>>,
    /// `param_deps[i]` = calls in the *previous* iteration whose parameter
    /// update call `i` must observe (same model, trained earlier).
    param_deps: Vec<Vec<CallId>>,
}

impl DataflowGraph {
    /// Builds a graph from call definitions, inferring edges from data keys
    /// (producer → consumer) and parameter versions (a model's `TrainStep`
    /// in iteration `t` gates all of that model's calls in iteration
    /// `t + 1`).
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] for duplicate names, duplicated data
    /// producers, inconsistent model architectures, cyclic data flow, or an
    /// empty call list.
    pub fn new(calls: Vec<ModelFunctionCallDef>) -> Result<Self, GraphError> {
        if calls.is_empty() {
            return Err(GraphError::Empty);
        }
        let mut names = HashSet::new();
        for c in &calls {
            if !names.insert(c.call_name.clone()) {
                return Err(GraphError::DuplicateCall(c.call_name.clone()));
            }
        }
        let mut archs: HashMap<&str, &real_model::ModelSpec> = HashMap::new();
        for c in &calls {
            match archs.get(c.model_name.as_str()) {
                Some(&existing) if existing != &c.model => {
                    return Err(GraphError::InconsistentModel(c.model_name.clone()))
                }
                _ => {
                    archs.insert(&c.model_name, &c.model);
                }
            }
        }
        let mut producer: HashMap<&str, CallId> = HashMap::new();
        for (i, c) in calls.iter().enumerate() {
            for key in &c.output_data {
                if producer.insert(key, CallId(i)).is_some() {
                    return Err(GraphError::DuplicateOutput(key.clone()));
                }
            }
        }
        let mut deps: Vec<Vec<CallId>> = vec![Vec::new(); calls.len()];
        for (i, c) in calls.iter().enumerate() {
            for key in &c.input_data {
                if let Some(&p) = producer.get(key.as_str()) {
                    if p.0 != i && !deps[i].contains(&p) {
                        deps[i].push(p);
                    }
                }
            }
            deps[i].sort_unstable();
        }
        // Cross-iteration parameter edges: every call of model m in iter t+1
        // depends on m's training call(s) in iter t.
        let mut param_deps: Vec<Vec<CallId>> = vec![Vec::new(); calls.len()];
        for (i, c) in calls.iter().enumerate() {
            for (j, t) in calls.iter().enumerate() {
                if t.call_type.is_training() && t.model_name == c.model_name && i != j {
                    param_deps[i].push(CallId(j));
                }
            }
        }
        let graph = Self {
            calls,
            deps,
            param_deps,
        };
        if graph.topo_order().is_none() {
            return Err(GraphError::Cyclic);
        }
        Ok(graph)
    }

    /// Number of function calls per iteration.
    pub fn n_calls(&self) -> usize {
        self.calls.len()
    }

    /// The call definition behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn call(&self, id: CallId) -> &ModelFunctionCallDef {
        &self.calls[id.0]
    }

    /// All call definitions in declaration order.
    pub fn calls(&self) -> &[ModelFunctionCallDef] {
        &self.calls
    }

    /// Iterates `(CallId, def)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CallId, &ModelFunctionCallDef)> {
        self.calls.iter().enumerate().map(|(i, c)| (CallId(i), c))
    }

    /// Intra-iteration parents of `id`.
    pub fn deps(&self, id: CallId) -> &[CallId] {
        &self.deps[id.0]
    }

    /// Parameter-version parents of `id` (to be read as edges from the
    /// previous iteration).
    pub fn param_deps(&self, id: CallId) -> &[CallId] {
        &self.param_deps[id.0]
    }

    /// Intra-iteration children of `id`.
    pub fn children(&self, id: CallId) -> Vec<CallId> {
        (0..self.calls.len())
            .map(CallId)
            .filter(|&c| self.deps(c).contains(&id))
            .collect()
    }

    /// Looks up a call by name.
    pub fn find(&self, call_name: &str) -> Option<CallId> {
        self.calls
            .iter()
            .position(|c| c.call_name == call_name)
            .map(CallId)
    }

    /// Distinct model names in declaration order.
    pub fn model_names(&self) -> Vec<&str> {
        let mut seen = HashSet::new();
        self.calls
            .iter()
            .filter_map(|c| {
                seen.insert(c.model_name.as_str())
                    .then_some(c.model_name.as_str())
            })
            .collect()
    }

    /// Ids of all calls owned by `model_name`, in declaration order.
    pub fn calls_of_model(&self, model_name: &str) -> Vec<CallId> {
        self.iter()
            .filter(|(_, c)| c.model_name == model_name)
            .map(|(id, _)| id)
            .collect()
    }

    /// A topological order over intra-iteration data edges, or `None` if
    /// cyclic.
    pub fn topo_order(&self) -> Option<Vec<CallId>> {
        let n = self.calls.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.deps[i].len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(CallId(i));
            for (j, deps) in self.deps.iter().enumerate() {
                if deps.contains(&CallId(i)) {
                    indeg[j] -= 1;
                    if indeg[j] == 0 {
                        queue.push(j);
                    }
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Whether `model_name` has a training call (i.e. is trainable rather
    /// than frozen).
    pub fn is_trainable(&self, model_name: &str) -> bool {
        self.calls
            .iter()
            .any(|c| c.model_name == model_name && c.call_type.is_training())
    }

    /// The staleness relaxation of async off-policy execution, per call:
    /// a generation call of a trainable model samples a parameter snapshot
    /// taken after its model's last non-generation call in topological
    /// order, which is returned here; every other call is `None` and keeps
    /// its model's fresh parameter chain.
    pub fn snapshot_sources(&self) -> Vec<Option<CallId>> {
        let relaxed = |c: &ModelFunctionCallDef| {
            matches!(c.call_type, CallType::Generate { .. }) && self.is_trainable(&c.model_name)
        };
        let topo = self.topo_order().expect("validated graphs are acyclic");
        let last_fresh = |model: &str| {
            let src = |c: &CallId| self.call(*c).model_name == model && !relaxed(self.call(*c));
            topo.iter().copied().rfind(src)
        };
        let source = |def| relaxed(def).then(|| last_fresh(&def.model_name)).flatten();
        self.calls.iter().map(source).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call::{CallType, ModelFunctionCallDef};
    use real_model::ModelSpec;

    fn gen(name: &str, model: &str, inputs: &[&str], outputs: &[&str]) -> ModelFunctionCallDef {
        ModelFunctionCallDef::new(
            name,
            model,
            ModelSpec::llama3_7b(),
            CallType::Generate {
                batch: 4,
                prompt_len: 8,
                gen_len: 8,
            },
            inputs,
            outputs,
        )
    }

    fn train(name: &str, model: &str, inputs: &[&str]) -> ModelFunctionCallDef {
        ModelFunctionCallDef::new(
            name,
            model,
            ModelSpec::llama3_7b(),
            CallType::TrainStep {
                batch: 4,
                seq_len: 16,
                n_minibatches: 1,
            },
            inputs,
            &[],
        )
    }

    #[test]
    fn data_edges_follow_producers() {
        let g = DataflowGraph::new(vec![
            gen("g", "actor", &["prompts"], &["seq"]),
            train("t", "actor", &["seq"]),
        ])
        .unwrap();
        let t = g.find("t").unwrap();
        let gid = g.find("g").unwrap();
        assert_eq!(g.deps(t), &[gid]);
        assert!(g.deps(gid).is_empty());
        assert_eq!(g.children(gid), vec![t]);
    }

    #[test]
    fn param_edges_link_training_to_model_calls() {
        let g = DataflowGraph::new(vec![
            gen("g", "actor", &["prompts"], &["seq"]),
            train("t", "actor", &["seq"]),
        ])
        .unwrap();
        let gid = g.find("g").unwrap();
        let t = g.find("t").unwrap();
        assert_eq!(g.param_deps(gid), &[t]);
        assert!(g.param_deps(t).is_empty());
        assert!(g.is_trainable("actor"));
    }

    #[test]
    fn duplicate_call_name_rejected() {
        let err = DataflowGraph::new(vec![
            gen("x", "actor", &[], &["a"]),
            gen("x", "actor", &[], &["b"]),
        ])
        .unwrap_err();
        assert_eq!(err, GraphError::DuplicateCall("x".into()));
    }

    #[test]
    fn duplicate_output_rejected() {
        let err = DataflowGraph::new(vec![
            gen("a", "actor", &[], &["seq"]),
            gen("b", "actor", &[], &["seq"]),
        ])
        .unwrap_err();
        assert_eq!(err, GraphError::DuplicateOutput("seq".into()));
    }

    #[test]
    fn inconsistent_architecture_rejected() {
        let mut big = gen("b", "actor", &[], &["x"]);
        big.model = ModelSpec::llama3_13b();
        let err = DataflowGraph::new(vec![gen("a", "actor", &[], &["y"]), big]).unwrap_err();
        assert_eq!(err, GraphError::InconsistentModel("actor".into()));
    }

    #[test]
    fn cycle_rejected() {
        let err = DataflowGraph::new(vec![
            gen("a", "m1", &["y"], &["x"]),
            gen("b", "m2", &["x"], &["y"]),
        ])
        .unwrap_err();
        assert_eq!(err, GraphError::Cyclic);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(DataflowGraph::new(vec![]).unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn snapshot_sources_relax_trainable_generation_only() {
        let g = DataflowGraph::new(vec![
            gen("g", "actor", &["prompts"], &["seq"]),
            gen("r", "reward", &["seq"], &["rew"]),
            train("t", "actor", &["seq", "rew"]),
        ])
        .unwrap();
        assert_eq!(g.snapshot_sources(), vec![Some(CallId(2)), None, None]);
    }

    #[test]
    fn topo_order_respects_deps() {
        let g = DataflowGraph::new(vec![
            gen("g", "actor", &["prompts"], &["seq"]),
            gen("r", "reward", &["seq"], &["rew"]),
            train("t", "actor", &["seq", "rew"]),
        ])
        .unwrap();
        let order = g.topo_order().unwrap();
        let pos = |n: &str| order.iter().position(|&c| c == g.find(n).unwrap()).unwrap();
        assert!(pos("g") < pos("r"));
        assert!(pos("r") < pos("t"));
    }

    #[test]
    fn model_names_and_calls_of_model() {
        let g = DataflowGraph::new(vec![
            gen("g", "actor", &["prompts"], &["seq"]),
            gen("r", "reward", &["seq"], &["rew"]),
            train("t", "actor", &["rew"]),
        ])
        .unwrap();
        assert_eq!(g.model_names(), vec!["actor", "reward"]);
        assert_eq!(g.calls_of_model("actor").len(), 2);
        assert!(!g.is_trainable("reward"));
    }

    #[test]
    fn self_loop_data_key_is_ignored() {
        // A call that consumes a key it also produces doesn't depend on
        // itself.
        let g = DataflowGraph::new(vec![gen("g", "actor", &["seq"], &["seq"])]).unwrap();
        assert!(g.deps(g.find("g").unwrap()).is_empty());
    }

    mod properties {
        use super::*;
        use crate::call::CallType;
        use proptest::prelude::*;

        /// Random call definitions over a small key alphabet; builder must
        /// either reject them with a structured error or produce a graph
        /// whose edges are consistent with the declared data keys.
        fn arbitrary_calls() -> impl Strategy<Value = Vec<ModelFunctionCallDef>> {
            let key = prop_oneof![
                Just("a".to_string()),
                Just("b".to_string()),
                Just("c".to_string()),
                Just("d".to_string()),
            ];
            let keys = proptest::collection::vec(key, 0..3);
            let call = (keys.clone(), keys, 0..3u8).prop_map(|(inputs, outputs, kind)| {
                let call_type = match kind {
                    0 => CallType::Generate {
                        batch: 4,
                        prompt_len: 8,
                        gen_len: 8,
                    },
                    1 => CallType::Inference {
                        batch: 4,
                        seq_len: 16,
                    },
                    _ => CallType::TrainStep {
                        batch: 4,
                        seq_len: 16,
                        n_minibatches: 1,
                    },
                };
                (inputs, outputs, call_type)
            });
            proptest::collection::vec(call, 1..6).prop_map(|raw| {
                raw.into_iter()
                    .enumerate()
                    .map(|(i, (inputs, outputs, call_type))| {
                        let ins: Vec<&str> = inputs.iter().map(String::as_str).collect();
                        let outs: Vec<&str> = outputs.iter().map(String::as_str).collect();
                        ModelFunctionCallDef::new(
                            format!("call{i}"),
                            format!("model{}", i % 2),
                            real_model::ModelSpec::llama3_7b(),
                            call_type,
                            &ins,
                            &outs,
                        )
                    })
                    .collect()
            })
        }

        proptest! {
            #[test]
            fn builder_is_total_and_sound(calls in arbitrary_calls()) {
                match DataflowGraph::new(calls.clone()) {
                    Err(e) => {
                        // Structured errors only.
                        let _ = e.to_string();
                    }
                    Ok(g) => {
                        // Topological order exists and respects every edge.
                        let order = g.topo_order().expect("accepted graphs are acyclic");
                        let pos = |c: CallId| order.iter().position(|&x| x == c).unwrap();
                        for (id, _) in g.iter() {
                            for &dep in g.deps(id) {
                                prop_assert!(pos(dep) < pos(id));
                                // Every edge is justified by a shared data key.
                                let producer = g.call(dep);
                                let consumer = g.call(id);
                                prop_assert!(producer
                                    .output_data
                                    .iter()
                                    .any(|k| consumer.input_data.contains(k)));
                            }
                        }
                        // Parameter edges always point at training calls of
                        // the same model.
                        for (id, def) in g.iter() {
                            for &p in g.param_deps(id) {
                                prop_assert!(g.call(p).call_type.is_training());
                                prop_assert_eq!(&g.call(p).model_name, &def.model_name);
                            }
                        }
                    }
                }
            }
        }
    }
}
