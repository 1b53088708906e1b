//! Serde-loadable tenant-set specification — the `tenants.json` format
//! behind `real sched --tenants` (and the template entries of
//! `real serve --workload`).
//!
//! A [`SchedSpec`] names the cluster size, a scheduler seed, and one
//! [`TenantSpec`] per tenant. Each tenant spec mirrors the single-run CLI
//! flags (`--algo`, `--actor`, `--critic`, `--batch`) plus the scheduling
//! fields: `priority`, `iterations`, an optional deterministic
//! [`FaultPlan`], and `elastic` (opt the tenant into the re-plan gate so it
//! can absorb freed capacity). Instead of `actor`/`algo`, a tenant may name
//! a user-defined dataflow via `graph` (a `graph.json` [`GraphSpec`] file,
//! the same DSL as `real run --graph`). Optional fields may be omitted from
//! the JSON; [`SchedSpec::build`] fills the defaults.
//!
//! Graph files are *not* read by this module: the CLI pre-loads every
//! referenced file through its `load_json` helper (so malformed specs
//! report `path:line:col`) and hands the parsed set to
//! [`SchedSpec::build_with_graphs`].
//!
//! ```
//! let json = r#"{
//!   "nodes": 2,
//!   "tenants": [
//!     {"name": "prod",  "actor": "7b", "algo": "dpo", "batch": 64, "priority": 2.0},
//!     {"name": "dev",   "actor": "7b", "algo": "dpo", "batch": 32},
//!     {"name": "batch", "actor": "7b", "algo": "dpo", "batch": 32, "iterations": 3}
//!   ]
//! }"#;
//! let spec: real_sched::SchedSpec = serde_json::from_str(json).unwrap();
//! let (cluster, tenants) = spec.build().unwrap();
//! assert_eq!(cluster.total_gpus(), 16);
//! assert_eq!(tenants.len(), 3);
//! assert_eq!(tenants[0].priority(), 2.0);
//! ```

use real_cluster::ClusterSpec;
use real_core::{Experiment, Tenant};
use real_dataflow::algo::RlhfConfig;
use real_dataflow::GraphSpec;
use real_model::ModelSpec;
use real_runtime::ReplanPolicy;
use real_sim::FaultPlan;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Pre-parsed `graph.json` specs keyed by the path string the tenant spec
/// used to reference them (see [`SchedSpec::build_with_graphs`]).
pub type GraphSet = HashMap<String, GraphSpec>;

/// A multi-tenant workload specification (the `tenants.json` schema).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedSpec {
    /// Cluster size in 8-GPU H100 nodes (positive power of two).
    pub nodes: u32,
    /// Scheduler / runtime seed; defaults to `1` when omitted.
    pub seed: Option<u64>,
    /// The tenant workloads to pack.
    pub tenants: Vec<TenantSpec>,
}

/// One tenant's workload and service parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Display name (must be unique within the spec).
    pub name: String,
    /// Stable tenant identity; seeds the tenant's RNG substream. Defaults
    /// to the tenant's list position. Give explicit ids when you want a
    /// tenant's random stream to survive co-tenant additions/removals.
    pub id: Option<u64>,
    /// Priority weight for the weighted-makespan objective (default `1.0`).
    pub priority: Option<f64>,
    /// RLHF algorithm: `ppo|dpo|grpo|remax|raft|itdpo` (default `ppo`).
    pub algo: Option<String>,
    /// Actor model size: `7b|13b|34b|70b`. Required unless `graph` is set.
    pub actor: Option<String>,
    /// Critic model size (defaults to the actor size; ignored by `dpo`).
    pub critic: Option<String>,
    /// Global batch size (default `64`).
    pub batch: Option<u64>,
    /// Path to a user-defined `graph.json` workflow ([`GraphSpec`] DSL,
    /// see docs/DATAFLOWS.md) used instead of `algo`/`actor`/`critic`/
    /// `batch`. Mutually exclusive with `actor`.
    pub graph: Option<String>,
    /// RLHF iterations to run (default `2`).
    pub iterations: Option<usize>,
    /// Deterministic fault schedule confined to this tenant's fault domain.
    pub faults: Option<FaultPlan>,
    /// Opt into elastic rebalancing: the tenant re-plans through the
    /// re-plan gate when the serving loop offers it freed capacity at one
    /// of its iteration boundaries.
    pub elastic: Option<bool>,
}

/// Why a [`SchedSpec`] could not be turned into tenants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid tenant spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl TenantSpec {
    /// Builds this tenant's [`Experiment`] on `cluster`: either the named
    /// built-in algorithm or the referenced `graph` file (looked up in
    /// `graphs`, which the caller pre-loaded — see [`GraphSet`]).
    /// Experiments are created with quick profiling (the scheduler profiles
    /// every tenant before it can plan, so the full profile grid would
    /// dominate admission time).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when a model size or algorithm is unknown, a
    /// batch size is zero, both (or neither of) `actor` and `graph` are
    /// set, a referenced graph is missing from `graphs` or fails DSL
    /// validation, or a fault plan fails validation.
    pub fn build_experiment(
        &self,
        cluster: &ClusterSpec,
        seed: u64,
        graphs: &GraphSet,
    ) -> Result<Experiment, SpecError> {
        let mut exp = match (&self.graph, &self.actor) {
            (Some(path), None) => {
                let spec = graphs.get(path).ok_or_else(|| {
                    SpecError(format!(
                        "tenant `{}`: graph file `{path}` was not pre-loaded \
                         (pass it via build_with_graphs; the CLI loads it for you)",
                        self.name
                    ))
                })?;
                Experiment::from_graph(cluster.clone(), spec)
                    .map_err(|e| SpecError(format!("tenant `{}`: {path}: {e}", self.name)))?
            }
            (None, Some(actor)) => {
                let actor = model_size(actor)?;
                let critic = match &self.critic {
                    Some(size) => model_size(size)?.critic(),
                    None => actor.critic(),
                };
                let batch = self.batch.unwrap_or(64);
                if batch == 0 {
                    return Err(SpecError(format!(
                        "tenant `{}`: batch must be > 0",
                        self.name
                    )));
                }
                let cfg = RlhfConfig::instruct_gpt(batch);
                let algo = self.algo.as_deref().unwrap_or("ppo");
                match algo {
                    "ppo" => Experiment::ppo(cluster.clone(), actor, critic, cfg),
                    "dpo" => Experiment::dpo(cluster.clone(), actor, cfg),
                    "grpo" => Experiment::grpo(cluster.clone(), actor, critic, cfg),
                    "remax" => Experiment::remax(cluster.clone(), actor, critic, cfg),
                    "raft" => Experiment::raft(cluster.clone(), actor, critic, cfg),
                    "itdpo" => Experiment::iterative_dpo(cluster.clone(), actor, critic, cfg),
                    other => {
                        return Err(SpecError(format!(
                        "tenant `{}`: unknown algo `{other}` (expected ppo|dpo|grpo|remax|raft|itdpo)",
                        self.name
                    )))
                    }
                }
            }
            (Some(_), Some(_)) => {
                return Err(SpecError(format!(
                    "tenant `{}`: `graph` and `actor` are mutually exclusive",
                    self.name
                )))
            }
            (None, None) => {
                return Err(SpecError(format!(
                    "tenant `{}`: needs either `actor` or `graph`",
                    self.name
                )))
            }
        };
        exp = exp.with_seed(seed).with_quick_profile();
        if let Some(plan) = &self.faults {
            plan.validate()
                .map_err(|e| SpecError(format!("tenant `{}`: {e}", self.name)))?;
            exp = exp.with_fault_plan(plan.clone());
        }
        if self.elastic.unwrap_or(false) {
            exp = exp.with_replan_policy(ReplanPolicy::default());
        }
        Ok(exp)
    }
}

impl SchedSpec {
    /// The effective seed (`1` when the field is omitted).
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(1)
    }

    /// [`SchedSpec::build_with_graphs`] with an empty graph set — enough
    /// for specs whose tenants all use the built-in algorithms.
    ///
    /// # Errors
    ///
    /// See [`SchedSpec::build_with_graphs`]; additionally errors when any
    /// tenant references a `graph` file (none are pre-loaded here).
    pub fn build(&self) -> Result<(ClusterSpec, Vec<Tenant>), SpecError> {
        self.build_with_graphs(&GraphSet::new())
    }

    /// Validates the spec and constructs the cluster plus one [`Tenant`]
    /// per entry, resolving `graph` references against the pre-parsed
    /// `graphs` set.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] when the cluster size is not a positive power
    /// of two, the tenant list is empty, names/ids collide, or any
    /// per-tenant build fails ([`TenantSpec::build_experiment`]).
    pub fn build_with_graphs(
        &self,
        graphs: &GraphSet,
    ) -> Result<(ClusterSpec, Vec<Tenant>), SpecError> {
        if self.nodes == 0 || !self.nodes.is_power_of_two() {
            return Err(SpecError(format!(
                "nodes must be a positive power of two, got {}",
                self.nodes
            )));
        }
        if self.tenants.is_empty() {
            return Err(SpecError("tenant list is empty".into()));
        }
        let cluster = ClusterSpec::h100(self.nodes);
        let mut tenants = Vec::with_capacity(self.tenants.len());
        for (index, t) in self.tenants.iter().enumerate() {
            let id = t.id.unwrap_or(index as u64);
            if tenants.iter().any(|prev: &Tenant| prev.id() == id) {
                return Err(SpecError(format!("duplicate tenant id {id}")));
            }
            if tenants.iter().any(|prev: &Tenant| prev.name() == t.name) {
                return Err(SpecError(format!("duplicate tenant name `{}`", t.name)));
            }
            let exp = t.build_experiment(&cluster, self.seed(), graphs)?;
            tenants.push(
                Tenant::new(&t.name, id, exp)
                    .with_priority(t.priority.unwrap_or(1.0))
                    .with_iterations(t.iterations.unwrap_or(2)),
            );
        }
        Ok((cluster, tenants))
    }
}

fn model_size(size: &str) -> Result<ModelSpec, SpecError> {
    ModelSpec::by_size(size).ok_or_else(|| {
        SpecError(format!(
            "unknown model size `{size}` (expected 7b|13b|34b|70b)"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(name: &str) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            id: None,
            priority: None,
            algo: Some("dpo".into()),
            actor: Some("7b".into()),
            critic: None,
            batch: Some(32),
            graph: None,
            iterations: None,
            faults: None,
            elastic: None,
        }
    }

    #[test]
    fn defaults_fill_in() {
        let spec = SchedSpec {
            nodes: 1,
            seed: None,
            tenants: vec![tenant("a"), tenant("b")],
        };
        let (cluster, tenants) = spec.build().unwrap();
        assert_eq!(cluster.total_gpus(), 8);
        assert_eq!(spec.seed(), 1);
        assert_eq!(tenants[0].id(), 0);
        assert_eq!(tenants[1].id(), 1);
        assert_eq!(tenants[0].priority(), 1.0);
        assert_eq!(tenants[0].iterations(), 2);
        assert!(tenants[0].experiment().replan_policy().is_none());
    }

    #[test]
    fn elastic_attaches_replan_policy() {
        let mut t = tenant("a");
        t.elastic = Some(true);
        let spec = SchedSpec {
            nodes: 1,
            seed: Some(7),
            tenants: vec![t],
        };
        let (_, tenants) = spec.build().unwrap();
        assert!(tenants[0].experiment().replan_policy().is_some());
    }

    #[test]
    fn rejects_bad_specs() {
        let empty = SchedSpec {
            nodes: 1,
            seed: None,
            tenants: vec![],
        };
        assert!(empty.build().is_err());

        let odd_nodes = SchedSpec {
            nodes: 3,
            seed: None,
            tenants: vec![tenant("a")],
        };
        assert!(odd_nodes.build().is_err());

        let mut dup = tenant("a");
        dup.id = Some(0);
        let dup_ids = SchedSpec {
            nodes: 1,
            seed: None,
            tenants: vec![tenant("a"), dup],
        };
        assert!(dup_ids.build().is_err());

        let mut bad_model = tenant("a");
        bad_model.actor = Some("9000b".into());
        let bad = SchedSpec {
            nodes: 1,
            seed: None,
            tenants: vec![bad_model],
        };
        assert!(bad.build().is_err());

        let mut bad_algo = tenant("a");
        bad_algo.algo = Some("sarsa".into());
        let bad = SchedSpec {
            nodes: 1,
            seed: None,
            tenants: vec![bad_algo],
        };
        assert!(bad.build().is_err());
    }

    #[test]
    fn graph_field_routes_through_the_preloaded_set() {
        let graph_json = r#"{
            "models": [{"role": "m", "arch": "7b"}],
            "data": ["prompts"],
            "calls": [
                {"name": "m_inf", "model": "m", "kind": "inf",
                 "batch": 32, "seq_len": 256, "inputs": ["prompts"], "outputs": ["s"]},
                {"name": "m_train", "model": "m", "kind": "train",
                 "batch": 32, "seq_len": 256, "inputs": ["s"]}
            ]
        }"#;
        let gspec: GraphSpec = serde_json::from_str(graph_json).unwrap();
        let mut t = tenant("g");
        t.actor = None;
        t.algo = None;
        t.batch = None;
        t.graph = Some("my-graph.json".into());
        let spec = SchedSpec {
            nodes: 1,
            seed: None,
            tenants: vec![t.clone()],
        };
        // Not pre-loaded: a named error, not a panic.
        let err = spec.build().unwrap_err();
        assert!(err.to_string().contains("my-graph.json"), "{err}");
        // Pre-loaded: the tenant gets the user-defined graph.
        let mut graphs = GraphSet::new();
        graphs.insert("my-graph.json".into(), gspec);
        let (_, tenants) = spec.build_with_graphs(&graphs).unwrap();
        assert_eq!(tenants[0].experiment().graph().n_calls(), 2);
    }

    #[test]
    fn graph_and_actor_are_mutually_exclusive() {
        let mut both = tenant("x");
        both.graph = Some("g.json".into());
        let spec = SchedSpec {
            nodes: 1,
            seed: None,
            tenants: vec![both],
        };
        let err = spec.build().unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");

        let mut neither = tenant("y");
        neither.actor = None;
        let spec = SchedSpec {
            nodes: 1,
            seed: None,
            tenants: vec![neither],
        };
        let err = spec.build().unwrap_err();
        assert!(err.to_string().contains("either"), "{err}");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = SchedSpec {
            nodes: 2,
            seed: Some(3),
            tenants: vec![tenant("a"), tenant("b")],
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: SchedSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
