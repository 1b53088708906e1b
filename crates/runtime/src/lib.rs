//! The runtime engine (§6 of the paper), simulated event-by-event.
//!
//! The real system runs a CPU *master worker* that resolves dependencies
//! and dispatches requests over sockets, and one *model worker* per GPU
//! acting as an RPC server with a FIFO request queue. This reproduction
//! keeps exactly that structure on virtual time: the master loop
//! ([`master`]) resolves the same dependency graph and dispatches requests
//! (with RPC latency), and each model worker is a FIFO
//! [`real_sim::GpuTimeline`] that executes the requests' kernels, collectives,
//! reallocation broadcasts, and transfers in arrival order. Every entry
//! point — [`RuntimeEngine::run`], `run_async`, `run_replan` and
//! [`TenantSession`] — drives one crate-private iteration driver, so
//! dependency resolution, reallocation, DSL hooks, and dispatch are
//! implemented once and differ only in policy.
//!
//! Fidelity is deliberately *finer* than the estimator's closed forms:
//! execution is simulated per micro-batch, per pipeline stage, and per
//! decode chunk, with log-normal kernel jitter, link-level contention
//! through the shared timelines, and the hierarchical parameter
//! reallocation algorithm of Fig. 6 ([`realloc`]). Comparing this engine's
//! measurements with the estimator's predictions reproduces Fig. 12.
//!
//! [`baselines`] expresses the four §8.1 baseline systems (DeepSpeed-Chat,
//! OpenRLHF, NeMo-Aligner, veRL) as plans plus engine flags so the Fig. 7
//! comparison runs apples-to-apples inside one engine.
//!
//! With a [`real_sim::FaultPlan`] injected ([`EngineConfig::fault_plan`]),
//! the master loop hardens into the resilient dispatch protocol described
//! in [`master`]: per-request deadlines derived from predicted cost,
//! bounded exponential-backoff retries, crash re-dispatch after worker
//! restart, and degraded-mode accounting ([`report::FaultStats`]).
//!
//! On top of the resilient protocol, [`replan`] adds *elastic re-planning*
//! ([`master::RuntimeEngine::run_replan`]): a [`ReplanPolicy`] watches the
//! live fault surface, and when a worker looks dead or degradation
//! persists, the master re-runs the §5.2 MCMC search on the surviving GPUs
//! and — if a cost/benefit gate approves — switches the run to the new
//! plan with one reallocation prologue, rolling back if the switch itself
//! faults.
//!
//! [`session`] packages one tenant's run as a suspendable
//! [`TenantSession`] on private timelines: the unit `real-serve`'s event
//! loop executes for every multi-tenant workload (`real serve` and
//! `real sched`), with per-tenant fault domains and RNG substreams, and
//! elastic growth into freed GPUs through the same re-plan gate.
//!
//! # Examples
//!
//! ```
//! use real_cluster::{ClusterSpec, DeviceMesh};
//! use real_dataflow::{algo, CallAssignment, ExecutionPlan};
//! use real_model::{ModelSpec, ParallelStrategy};
//! use real_runtime::{EngineConfig, RuntimeEngine};
//!
//! let cluster = ClusterSpec::h100(1);
//! let actor = ModelSpec::llama3_7b();
//! let graph = algo::ppo(&actor, &actor.critic(), &algo::RlhfConfig::instruct_gpt(32));
//! let a = CallAssignment::new(
//!     DeviceMesh::full(&cluster),
//!     ParallelStrategy::new(1, 8, 1, 4).unwrap(),
//! ).unwrap();
//! let plan = ExecutionPlan::new(&graph, &cluster, vec![a; graph.n_calls()]).unwrap();
//! let engine = RuntimeEngine::new(cluster, graph, EngineConfig::default());
//! let report = engine.run(&plan, 2).unwrap();
//! assert!(report.iter_time > 0.0);
//! ```

pub mod baselines;
pub mod config;
mod driver;
pub mod exec;
pub mod layout;
pub mod master;
pub mod obs;
pub mod offpolicy;
pub mod realloc;
pub mod replan;
pub mod report;
pub mod session;
pub mod workers;

pub use config::EngineConfig;
pub use master::{RunError, RuntimeEngine};
pub use replan::{ReplanEvent, ReplanOutcome, ReplanPolicy, ReplanReason, ReplanStats};
pub use report::{AsyncStats, CallTiming, FaultAbort, FaultStats, RequestFault, RunReport};
pub use session::{SessionCheckpoint, SessionError, TenantSession};
pub use workers::{DataLocation, MasterLog, Request, Response, WorkerDirectory};
