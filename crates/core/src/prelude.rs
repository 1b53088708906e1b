//! One-stop imports for typical `real-rs` usage.
//!
//! ```
//! use real_core::prelude::*;
//! let cluster = ClusterSpec::h100(2);
//! let cfg = RlhfConfig::instruct_gpt(512);
//! assert_eq!(cluster.total_gpus(), 16);
//! assert_eq!(cfg.context_len(), 2048);
//! ```

pub use crate::advisor::{recommend, Recommendation};
pub use crate::{Experiment, ExperimentReport, PlanFailure, PlannedExperiment, Tenant};
pub use real_cluster::{
    ClusterHealth, ClusterSpec, CommModel, DeviceMesh, GpuHealth, GpuId, GpuSpec,
};
pub use real_dataflow::algo::{self, RlhfConfig};
pub use real_dataflow::render::{to_ascii, to_dot};
pub use real_dataflow::{
    BuiltGraph, CallAssignment, CallHook, CallId, CallType, DataflowGraph, ExecutionPlan,
    GraphSpec, ModelFunctionCallDef, SpecError,
};
pub use real_estimator::{probe, CostMemo, Estimator};
pub use real_model::specdec::{AcceptanceCurve, SpecDecodeConfig};
pub use real_model::{CostModel, MemoryModel, ModelSpec, ParallelStrategy};
pub use real_obs::{EventStream, MetricsRegistry, MetricsSnapshot};
pub use real_profiler::{calibrated_acceptance, SpecTask};
pub use real_profiler::{ProfileConfig, ProfileDb, Profiler};
pub use real_runtime::{
    baselines, AsyncStats, EngineConfig, FaultAbort, FaultStats, ReplanEvent, ReplanOutcome,
    ReplanPolicy, ReplanReason, ReplanStats, RequestFault, RunError, RunReport, RuntimeEngine,
};
pub use real_search::{
    brute_force, compare, greedy_plan, heuristic_plan, parallel_search, resume, search,
    search_speculative, search_warm, BruteConfig, ChainState, McmcConfig, NoSymmetricPlan,
    PlanComparison, PruneLevel, SearchCheckpoint, SearchResult, SearchSpace, SpecMenu,
    SpecSearchResult,
};
pub use real_sim::{Category, FaultClock, FaultEvent, FaultPlan, Timelines, Trace};
