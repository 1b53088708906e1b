//! # real-sched — multi-tenant cluster scheduling
//!
//! Packs several concurrent [`Tenant`](real_core::Tenant) experiments onto
//! one simulated cluster. The paper's planner (§5) optimizes a single
//! experiment on a dedicated [`DeviceMesh`](real_cluster::DeviceMesh); this
//! crate lifts that machinery one level up:
//!
//! 1. **Allocation search** ([`Scheduler::plan`]): enumerate buddy-aligned
//!    mesh splits of the cluster ([`real_cluster::partition`]), score each
//!    candidate split with per-tenant greedy plans on the restricted
//!    [`SearchSpace`](real_search::SearchSpace), and pick the split
//!    minimizing the *priority-weighted makespan*
//!    `Σᵢ priorityᵢ · stepᵢ · iterationsᵢ` subject to a max-stretch
//!    fairness bound (no tenant may run more than `max_stretch` times
//!    slower than it would alone on the full cluster). The winning split's
//!    per-tenant plans are then refined by warm-started MCMC.
//! 2. **Execution** lives in `real-serve` (`real_serve::run_sched`): the
//!    schedule runs as a serve-loop run in which every tenant arrives at
//!    t = 0 on its placement. Fault domains stay per-tenant, a tenant whose
//!    mesh is taken (oversubscription) waits for it, and an elastic tenant
//!    grows into freed GPUs through the re-plan gate at its iteration
//!    boundaries.
//!
//! Tenant sets load from a serde spec ([`SchedSpec`], `tenants.json` on the
//! CLI), and results surface as a [`SchedReport`] (per-tenant stretch,
//! throughput, Jain fairness index, reallocation counts) plus per-tenant
//! Chrome-trace process groups and `sched/*` metrics ([`obs`]).

pub mod obs;
pub mod report;
pub mod scheduler;
pub mod spec;

pub use report::{SchedReport, ServedTimes, TenantOutcome};
pub use scheduler::{SchedConfig, SchedError, Schedule, Scheduler, TenantPlan};
pub use spec::{GraphSet, SchedSpec, SpecError, TenantSpec};
