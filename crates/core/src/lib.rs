//! # real-rs — ReaL: RLHF training with parameter reallocation, in Rust
//!
//! A faithful systems reproduction of *ReaL: Efficient RLHF Training of
//! Large Language Models with Parameter Reallocation* (MLSys 2025) against
//! a simulated GPU cluster. The crate graph mirrors the paper:
//!
//! | paper component | crate |
//! |---|---|
//! | cluster & device meshes (§4) | [`real_cluster`] |
//! | LLaMA-3 models, 3D parallelism, cost/memory models (§2, Table 1) | [`real_model`] |
//! | dataflow graphs & execution plans (§3–4) | [`real_dataflow`] |
//! | profiler (§5.1) | [`real_profiler`] |
//! | runtime estimator: Algorithm 1 + MaxMem (§5.1) | [`real_estimator`] |
//! | MCMC plan search + pruning + brute force (§5.2, §8.2) | [`real_search`] |
//! | runtime engine: master/model workers, reallocation (§6) | [`real_runtime`] |
//!
//! This crate is the user-facing facade: [`Experiment`] plays the role of
//! the paper's Appendix-B `@auto` decorator — give it a cluster and a
//! workflow, and it profiles, searches, and runs.
//!
//! # Quickstart
//!
//! ```
//! use real_core::prelude::*;
//!
//! // A PPO experiment: 7B actor + 7B critic on one 8-GPU node.
//! let experiment = Experiment::ppo(
//!     ClusterSpec::h100(1),
//!     ModelSpec::llama3_7b(),
//!     ModelSpec::llama3_7b().critic(),
//!     RlhfConfig::instruct_gpt(64),
//! ).with_quick_profile();
//!
//! // Automatic planning (search budget kept tiny for the doctest).
//! let mut search = McmcConfig::default();
//! search.max_steps = 200;
//! let planned = experiment.plan_auto(&search).unwrap();
//! let report = experiment.run(&planned.plan, 2).unwrap();
//! assert!(report.tokens_per_sec > 0.0);
//! ```

pub mod advisor;
pub mod experiment;
pub mod prelude;
pub mod report;
pub mod tenant;

pub use advisor::{recommend, Recommendation, SizePoint};
pub use experiment::{Experiment, PlanFailure, PlannedExperiment};
pub use report::ExperimentReport;
pub use tenant::Tenant;

// Re-export the component crates so downstream users need one dependency.
pub use real_cluster;
pub use real_dataflow;
pub use real_estimator;
pub use real_model;
pub use real_obs;
pub use real_profiler;
pub use real_runtime;
pub use real_search;
pub use real_sim;
pub use real_util;
