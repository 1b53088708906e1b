//! The master worker's one iteration driver (§6).
//!
//! Every runtime entry point — [`RuntimeEngine::run`], `run_async`,
//! `run_replan` and [`crate::session::TenantSession`] — executes through
//! [`Driver`]. It owns one tenant's run state, its timelines included, and
//! implements the per-call step once: data
//! dependencies (plus a transfer when layouts differ, against the
//! assignments the producers actually executed on), parameter readiness,
//! RPC latency and DSL pre hook, the request log, dispatch (plain, or the
//! resilient retry protocol under a fault clock), post hook, response and
//! bookkeeping. The entry points differ only in three policy points:
//!
//! - **parameter-version gate** — sync (the live `param_layout` map: the
//!   layout and completion of each model's last executed call), or
//!   staleness-`s` ([`Driver::with_staleness`]: relaxed generation calls
//!   sample a snapshot shipped copy-engine style, see [`crate::offpolicy`]);
//! - **iteration floor** — `0`, or a session's relative clock;
//! - **between-call/iteration hook** — [`Replan`]: the dead-worker wait
//!   cap and the straggler / degraded-rate boundary triggers, all feeding
//!   the one re-plan gate ([`Driver::gate`]), which a session also opens
//!   to offer freed capacity.

use crate::config::EngineConfig;
use crate::exec::{draft_cost_models, execute_call_spec, spec_exec_for, ExecCtx, SpecExec};
use crate::master::{RunError, RuntimeEngine};
use crate::offpolicy::gen_train_overlap;
use crate::realloc::{execute_realloc, realloc_volume};
use crate::replan::{ReplanEvent, ReplanOutcome, ReplanPolicy, ReplanReason, ReplanStats};
use crate::report::{AsyncStats, CallTiming, FaultAbort, FaultStats, RequestFault, RunReport};
use crate::workers::{MasterLog, Request, Response};
use real_cluster::{ClusterHealth, CommModel, GpuId};
use real_dataflow::{CallAssignment, CallId, ExecutionPlan, ModelFunctionCallDef};
use real_estimator::{maxmem, CostMemo, Estimator};
use real_model::{CostModel, ModelSpec};
use real_search::{compare, search_warm, McmcConfig, SearchSpace};
use real_sim::{Category, FaultClock, KernelLabel, Timelines, Trace};
use real_util::DeterministicRng;
use std::collections::HashMap;
use std::time::Duration;

/// The re-plan hook of a run: the policy whose triggers are watched and
/// the §5 estimator for the engine's cluster and graph.
#[derive(Clone, Copy)]
pub(crate) struct Replan<'a> {
    pub(crate) policy: &'a ReplanPolicy,
    pub(crate) est: &'a Estimator,
}

/// What a run executes against; fixed for the driver's lifetime.
#[derive(Debug, Clone)]
struct Env {
    engine: RuntimeEngine,
    comm: CommModel,
    /// One cost model per distinct architecture.
    costs: HashMap<String, CostModel>,
    /// Compiled fault schedule. `None` keeps every site on the exact
    /// fault-free code path (identical RNG draws and arithmetic).
    clock: Option<FaultClock>,
    topo: Vec<CallId>,
}

impl Env {
    /// A copy-engine send of `per_src` bytes from `src` into `dst`: only
    /// the consumer mesh is occupied, because the producer's GPUs serve the
    /// send from copy engines without stalling whatever they run next
    /// (otherwise a tiny transfer would serialize disjoint-mesh calls
    /// through the producer's busy queue).
    #[allow(clippy::too_many_arguments)]
    fn send(
        &self,
        tl: &mut Timelines,
        rng: &mut DeterministicRng,
        per_src: f64,
        src: &CallAssignment,
        dst: &CallAssignment,
        ready: f64,
        cat: Category,
    ) -> f64 {
        let within = dst.mesh.n_nodes() == 1
            && src.mesh.n_nodes() == 1
            && dst.mesh.node_start() == src.mesh.node_start();
        let mut dur = self.comm.broadcast(per_src, 2, within)
            * rng.lognormal_factor(self.engine.config().jitter_sigma);
        let gpus: Vec<usize> = dst.mesh.gpus().map(|g| g.0 as usize).collect();
        if let Some(clock) = self.clock.as_ref() {
            let start = gpus
                .iter()
                .map(|&g| tl.gpu(g).busy_until())
                .fold(ready, f64::max);
            dur = clock.stretched(&gpus, start, dur, true);
        }
        tl.collective(&gpus, ready, dur, cat)
    }

    /// Ships a parameter snapshot of `model` from the trainer layout `src`
    /// to `dst`: the full parameter footprint of `dst`, copy-engine style.
    fn ship(
        &self,
        tl: &mut Timelines,
        rng: &mut DeterministicRng,
        model: &ModelSpec,
        src: &CallAssignment,
        dst: &CallAssignment,
        ready: f64,
    ) -> f64 {
        let per_gpu = realloc_volume(model, dst) as f64 / dst.mesh.n_gpus() as f64;
        self.send(tl, rng, per_gpu, src, dst, ready, Category::Realloc)
    }
}

/// One tenant's run state and the master loop over it (module docs).
#[derive(Debug, Clone)]
pub(crate) struct Driver {
    env: Env,
    /// The run's GPU timelines: one per GPU of the cluster, private to it.
    tl: Timelines,
    pub(crate) rng: DeterministicRng,
    trace: Trace,
    pub(crate) faults: FaultStats,
    pub(crate) replan: ReplanStats,
    master_log: MasterLog,
    timings: Vec<CallTiming>,
    completion: Vec<Vec<f64>>,
    pub(crate) iter_end: Vec<f64>,
    /// Deadline predictions per call name.
    predicted: HashMap<String, f64>,
    pub(crate) current: ExecutionPlan,
    draft_costs: HashMap<String, CostModel>,
    /// The layout actually holding each model's parameters and when they
    /// become available there.
    param_layout: HashMap<String, (CallAssignment, f64)>,
    /// Under the staleness gate: per call, its snapshot source
    /// ([`real_dataflow::DataflowGraph::snapshot_sources`]); the bound is
    /// `async_stats.staleness_bound`.
    stale: Option<Vec<Option<CallId>>>,
    async_stats: AsyncStats,
    mem_peak: u64,
}

impl Driver {
    /// A driver for `iterations` iterations of `plan` on `engine`, drawing
    /// jitter from `rng`.
    ///
    /// # Errors
    ///
    /// [`RunError::NoIterations`] when `iterations == 0`;
    /// [`RunError::OutOfMemory`] when the plan does not fit device memory
    /// (unless `skip_mem_check` is set).
    pub(crate) fn new(
        engine: RuntimeEngine,
        plan: &ExecutionPlan,
        iterations: usize,
        rng: DeterministicRng,
    ) -> Result<Self, RunError> {
        if iterations == 0 {
            return Err(RunError::NoIterations);
        }
        let peak = mem_peak(&engine, plan)?;
        let (cluster, graph, config) = (engine.cluster(), engine.graph(), engine.config());
        let mut costs: HashMap<String, CostModel> = HashMap::new();
        for call in graph.calls() {
            costs
                .entry(call.model.name.clone())
                .or_insert_with(|| CostModel::new(cluster.clone(), call.model.clone()));
        }
        let n_gpus = cluster.total_gpus() as usize;
        let per_node = cluster.gpus_per_node as usize;
        let clock = config
            .fault_plan
            .as_ref()
            .map(|p| FaultClock::new(p, n_gpus, per_node));
        let trace = if config.trace_capacity > 0 {
            Trace::with_capacity(config.trace_capacity)
        } else {
            Trace::disabled()
        };
        Ok(Self {
            tl: Timelines::new(n_gpus),
            rng,
            trace,
            faults: FaultStats {
                injected: clock.as_ref().map_or(0, FaultClock::n_windows),
                ..FaultStats::default()
            },
            replan: ReplanStats::default(),
            master_log: MasterLog::default(),
            timings: Vec::new(),
            completion: vec![vec![0.0; graph.n_calls()]; iterations],
            iter_end: vec![0.0; iterations],
            predicted: config.predicted_secs.iter().cloned().collect(),
            current: plan.clone(),
            draft_costs: draft_cost_models(cluster, plan),
            param_layout: HashMap::new(),
            stale: None,
            async_stats: AsyncStats::default(),
            mem_peak: peak,
            env: Env {
                comm: CommModel::new(cluster),
                costs,
                clock,
                topo: graph.topo_order().expect("validated graphs are acyclic"),
                engine,
            },
        })
    }

    /// Switches the parameter-version gate to staleness `bound`: every
    /// relaxed call samples the snapshot of its source call
    /// ([`real_dataflow::DataflowGraph::snapshot_sources`]) `bound + 1`
    /// iterations back.
    pub(crate) fn with_staleness(mut self, bound: u32) -> Self {
        self.stale = Some(self.env.engine.graph().snapshot_sources());
        self.async_stats.staleness_bound = bound;
        self
    }

    pub(crate) fn config(&self) -> &EngineConfig {
        self.env.engine.config()
    }

    pub(crate) fn iterations(&self) -> usize {
        self.iter_end.len()
    }

    /// Runs iteration `iter`: every call in topological order, none
    /// becoming ready before `floor`, then the boundary triggers of
    /// `replan`.
    pub(crate) fn run_iteration(&mut self, iter: usize, floor: f64, replan: Option<Replan<'_>>) {
        self.iter_end[iter] = floor;
        let epoch = replan.map(|_| self.faults.clone());
        // The assignment each call executed on this iteration: the plan may
        // switch mid-iteration, so it is not authoritative for transfers.
        let mut executed = self.current.assignments().to_vec();
        for pos in 0..self.env.topo.len() {
            let call = self.env.topo[pos];
            // Without a switch the request re-dispatches uncapped, waiting
            // out the downtime exactly like a run without a policy.
            let mut capped = true;
            loop {
                let cap = replan
                    .filter(|r| capped && self.replan.switches < r.policy.max_replans)
                    .map(|r| r.policy.dead_after_secs);
                match self.step_call(&mut executed, iter, call, floor, cap) {
                    Ok(()) => break,
                    Err((at, gpu)) => {
                        let r = replan.expect("only capped dispatches ask to re-plan");
                        capped = self.try_replan(r, at, iter, ReplanReason::DeadWorker { gpu });
                    }
                }
            }
        }

        // Iteration-boundary triggers over this iteration's fault deltas
        // (persistent stragglers, degraded-mode completion rate).
        let (Some(r), Some(epoch)) = (replan, epoch) else {
            return;
        };
        if iter + 1 >= self.iterations() || self.replan.switches >= r.policy.max_replans {
            return;
        }
        let timeouts = self.faults.timeouts - epoch.timeouts;
        let degraded = self.faults.requests_degraded - epoch.requests_degraded;
        let dispatches = self.faults.dispatches - epoch.dispatches;
        let rate = if dispatches > 0 {
            degraded as f64 / dispatches as f64
        } else {
            0.0
        };
        let reason = if timeouts as u64 >= r.policy.straggler_requests {
            ReplanReason::Straggler {
                timeouts: timeouts as u64,
            }
        } else if degraded > 0 && rate >= r.policy.degraded_rate_threshold {
            ReplanReason::DegradedRate { rate }
        } else {
            return;
        };
        self.try_replan(r, self.iter_end[iter], iter, reason);
    }

    /// Executes `call` of iteration `iter`. With a `wait_cap`, a dispatch
    /// whose participants stay down for the cap rolls the whole step back
    /// and returns `Err((at, gpu))`: the decision instant and the dead GPU.
    fn step_call(
        &mut self,
        executed: &mut [CallAssignment],
        iter: usize,
        call: CallId,
        floor: f64,
        wait_cap: Option<f64>,
    ) -> Result<(), (f64, u32)> {
        let snapshot = wait_cap.map(|_| (self.tl.clone(), self.rng.clone(), self.faults.clone()));
        let cp = self.trace.checkpoint();
        let (env, tl) = (&self.env, &mut self.tl);
        let (graph, config) = (env.engine.graph(), env.engine.config());
        let def = graph.call(call);
        let a = *self.current.assignment(call);

        // Data-dependency readiness (+ transfer when layouts differ).
        let mut ready = floor;
        for &dep in graph.deps(call) {
            let dep_done = self.completion[iter][dep.0];
            let b = executed[dep.0];
            let end = if a.mesh == b.mesh && a.strategy == b.strategy {
                dep_done
            } else {
                let bytes = graph.call(dep).call_type.total_tokens() as f64 * 8.0;
                let per_src = bytes / f64::from(b.strategy.dp());
                env.send(
                    tl,
                    &mut self.rng,
                    per_src,
                    &b,
                    &a,
                    dep_done,
                    Category::Transfer,
                )
            };
            ready = ready.max(end);
        }

        // Parameter-version gate: a relaxed generation call waits for its
        // snapshot version (`None` while warming up on initial weights),
        // every other call for its model's live layout, reallocating when
        // the layouts differ.
        let back = 1 + i64::from(self.async_stats.staleness_bound);
        let snapshot_src = self
            .stale
            .as_ref()
            .and_then(|s| s[call.0].map(|src| (iter as i64 - back, src)));
        if let Some((version, src)) = snapshot_src {
            if version >= 0 {
                let pdone = self.completion[version as usize][src.0];
                let pa = *self.current.assignment(src);
                let end = if pa == a {
                    pdone
                } else {
                    env.ship(tl, &mut self.rng, &def.model, &pa, &a, pdone)
                };
                ready = ready.max(end);
                // A speculative call's snapshot also covers the draft's
                // weights, shipped to the draft mesh.
                if let Some(c) = self.current.spec_choice(call) {
                    let draft = &c.config.draft_model;
                    let end = env.ship(tl, &mut self.rng, draft, &pa, &c.assignment, pdone);
                    ready = ready.max(end);
                }
            }
        } else if let Some((pa, pdone)) = self.param_layout.get(&def.model_name).copied() {
            let end = execute_realloc(
                tl,
                &mut self.trace,
                &env.comm,
                &def.model,
                &pa,
                &a,
                pdone,
                &mut self.rng,
                config.jitter_sigma,
                env.clock.as_ref(),
            );
            ready = ready.max(end);
        }

        // Master dispatch RPC: the request carries the upstream data
        // locations, never the data itself (§6). User hooks from the graph
        // DSL are host-side: the pre hook delays dispatch and the post hook
        // delays completion visibility without occupying the mesh.
        let (pre_hook, post_hook) = config.hook_secs(&def.call_name);
        let ready = ready + config.rpc_latency + pre_hook;
        let spec = spec_exec_for(&self.current, call, &self.draft_costs);
        let mut ctx = ExecCtx {
            cost: &env.costs[&def.model.name],
            comm: &env.comm,
            tl,
            trace: &mut self.trace,
            rng: &mut self.rng,
            cfg: config,
            zero3: config.zero3_models.contains(&def.model_name),
            faults: None,
        };
        let end = match env.clock.as_ref() {
            None => execute_call_spec(&mut ctx, &a, def.call_type, ready, spec.as_ref()),
            Some(clock) => {
                let request = Attempt {
                    a: &a,
                    def,
                    predicted: self.predicted.get(def.call_name.as_str()).copied(),
                    iter,
                    spec: spec.as_ref(),
                };
                match dispatch_capped(&mut ctx, clock, &request, ready, &mut self.faults, wait_cap)
                {
                    Ok(end) => end,
                    Err(replan_at) => {
                        let (tl_snap, rng_snap, faults_snap) =
                            snapshot.expect("a capped step takes a snapshot");
                        *tl = tl_snap;
                        self.rng = rng_snap;
                        self.faults = faults_snap;
                        self.trace.rewind(cp);
                        return Err(replan_at);
                    }
                }
            }
        };
        let end = end + post_hook;

        if let Some((version, src)) = snapshot_src {
            if iter > 0 {
                // Observed staleness: training steps newer than the
                // snapshot that had already completed at dispatch.
                self.async_stats.relaxed_calls += 1;
                let newer_from = usize::try_from(version + 1).unwrap_or(0);
                let observed = (newer_from..iter)
                    .filter(|&j| self.completion[j][src.0] <= ready)
                    .count() as u32;
                self.async_stats.max_observed_staleness =
                    self.async_stats.max_observed_staleness.max(observed);
            }
        } else {
            self.param_layout.insert(def.model_name.clone(), (a, end));
        }
        self.master_log.requests.push(Request {
            call,
            handle: def.call_name.clone(),
            iter,
            dispatch_time: ready,
            data_locations: MasterLog::data_locations(graph, &self.current, call),
            worker_count: a.mesh.n_gpus(),
        });
        self.master_log.responses.push(Response {
            call,
            iter,
            completed_at: end,
        });
        self.timings.push(CallTiming {
            call_name: def.call_name.clone(),
            iter,
            start: ready,
            end,
        });
        executed[call.0] = a;
        self.completion[iter][call.0] = end;
        self.iter_end[iter] = self.iter_end[iter].max(end);
        Ok(())
    }

    /// Evaluates a fault-driven trigger at `now`: re-searches over the
    /// meshes surviving the cluster health observed on the fault clock and
    /// runs the candidate through [`Self::gate`].
    fn try_replan(&mut self, r: Replan<'_>, now: f64, iter: usize, reason: ReplanReason) -> bool {
        let clock = self.env.clock.as_ref().expect("triggers fire on faults");
        let (cluster, graph) = (self.env.engine.cluster(), self.env.engine.graph());
        // Cluster health at the trigger instant: workers past the patience
        // window are dead, upcoming slowdown windows tag their GPUs with
        // the factor the estimator degrades by.
        let mut health = ClusterHealth::healthy(cluster);
        for g in 0..cluster.total_gpus() as usize {
            if clock.available_from(&[g], now) - now >= r.policy.dead_after_secs {
                health.mark_dead(GpuId(g as u32));
            } else {
                let factor = clock.max_slowdown_in(g, now, now + r.policy.slowdown_lookahead);
                if factor > 1.0 {
                    health.mark_slow(GpuId(g as u32), factor);
                }
            }
        }
        let health = health.with_dead_penalty(r.policy.dead_penalty);
        let space =
            SearchSpace::try_build_on(cluster, graph, r.policy.prune, &health.surviving_meshes());
        let est = r.est.clone().with_health(health);
        let seed = self.env.engine.config().seed;
        let remaining = (self.iterations() - iter) as f64;
        self.gate(
            space.ok(),
            &est,
            r.policy,
            now,
            iter,
            remaining,
            reason,
            |n| {
                DeterministicRng::from_seed(seed)
                    .derive("replan")
                    .derive(&format!("eval{n}"))
                    .next_u64()
            },
        )
    }

    /// The re-plan gate. Warm-starts MCMC over `space` (seeded by
    /// `seed(evaluation index)`) from the incumbent, then requires the
    /// candidate to fit memory, beat the incumbent's estimated step time by
    /// `policy.min_speedup`, survive its reallocation prologue without a
    /// fresh crash, and save more than `policy.min_benefit_ratio` times
    /// the prologue's measured seconds over `remaining` iterations. On
    /// commit the prologue stays on the timelines, the layouts and deadline
    /// predictions follow the candidate, and `true` is returned; every
    /// other outcome leaves the run bit-exactly where it was, recorded
    /// only in the decision log.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gate(
        &mut self,
        space: Option<SearchSpace>,
        est: &Estimator,
        policy: &ReplanPolicy,
        now: f64,
        iter: usize,
        remaining: f64,
        reason: ReplanReason,
        seed: impl FnOnce(u64) -> u64,
    ) -> bool {
        self.replan.evaluations += 1;
        let seed = seed(self.replan.evaluations);
        let outcome = self.evaluate(space, est, policy, now, remaining, seed);
        let stats = &mut self.replan;
        match outcome {
            ReplanOutcome::Switched { switch_secs, .. } => {
                stats.switches += 1;
                stats.switch_seconds += switch_secs;
            }
            ReplanOutcome::GateRejected { .. } => stats.gate_rejections += 1,
            ReplanOutcome::SwitchFaulted { .. } => stats.aborted_switches += 1,
            ReplanOutcome::NoSurvivingPlan => stats.no_plan += 1,
        }
        let switched = matches!(outcome, ReplanOutcome::Switched { .. });
        stats.events.push(ReplanEvent {
            at: now,
            iter,
            reason,
            outcome,
        });
        switched
    }

    /// [`Self::gate`]'s decision, committing the candidate on a switch.
    #[allow(clippy::too_many_arguments)]
    fn evaluate(
        &mut self,
        space: Option<SearchSpace>,
        est: &Estimator,
        policy: &ReplanPolicy,
        now: f64,
        remaining: f64,
        seed: u64,
    ) -> ReplanOutcome {
        let Some(space) = space else {
            return ReplanOutcome::NoSurvivingPlan;
        };
        let cfg = McmcConfig {
            beta: policy.beta,
            max_steps: policy.search_steps,
            // Effectively unlimited: a wall-clock cutoff would break
            // replayability, and the step budget already bounds the search.
            time_limit: Duration::from_secs(86_400),
            seed,
            record_trace: false,
        };
        let candidate =
            search_warm(est, &space, &cfg, &self.current, &mut CostMemo::new()).best_plan;
        if mem_peak(&self.env.engine, &candidate).is_err() {
            return ReplanOutcome::NoSurvivingPlan;
        }

        // Estimated-speedup gate first: skip the (rolled-back anyway)
        // prologue when the candidate is not clearly faster.
        let comparison = compare(est, &self.current, &candidate);
        let (base_time, target_time) = (comparison.base_time, comparison.target_time);
        if target_time >= base_time || base_time / target_time < policy.min_speedup {
            return ReplanOutcome::GateRejected {
                base_time,
                target_time,
                switch_secs: 0.0,
            };
        }

        let tl_snap = self.tl.clone();
        let rng_snap = self.rng.clone();
        let cp = self.trace.checkpoint();
        let (prologue_end, participants, moved) = self.prologue(&candidate, now, None);
        let switch_secs = prologue_end - now;

        // Abort only on a *fresh* crash among participants that were up when
        // the prologue started: the broadcasts source from surviving
        // replicas, so a worker already down at `now` (typically the very
        // one being evacuated) cannot fault the switch. Then the
        // cost/benefit gate on the *measured* switch cost.
        let crash = self.env.clock.as_ref().and_then(|clock| {
            let live: Vec<usize> = participants
                .into_iter()
                .filter(|&g| clock.available_from(&[g], now) <= now)
                .collect();
            clock.first_crash(&live, now, prologue_end)
        });
        let rejected = if let Some((gpu, at)) = crash {
            Some(ReplanOutcome::SwitchFaulted {
                gpu: gpu as u32,
                at,
            })
        } else if (base_time - target_time) * remaining <= policy.min_benefit_ratio * switch_secs {
            Some(ReplanOutcome::GateRejected {
                base_time,
                target_time,
                switch_secs,
            })
        } else {
            None
        };
        if let Some(outcome) = rejected {
            self.tl = tl_snap;
            self.rng = rng_snap;
            self.trace.rewind(cp);
            return outcome;
        }

        // Commit: refresh deadline predictions for the candidate's
        // assignments and adopt the moved layouts.
        let graph = self.env.engine.graph();
        for &call in &self.env.topo {
            self.predicted.insert(
                graph.call(call).call_name.clone(),
                est.call_duration(call, candidate.assignment(call)),
            );
        }
        self.switch_to(candidate, moved, prologue_end);
        ReplanOutcome::Switched {
            base_time,
            target_time,
            switch_secs,
            n_diffs: comparison.diffs.len(),
        }
    }

    /// The reallocation prologue of a plan switch: moves every held
    /// model's parameters from its live layout to `target`'s (the model's
    /// first call's assignment — later same-model calls reallocate per call
    /// as usual), starting no earlier than `now`, with jitter from `rng`
    /// (the driver's own stream when `None`). Returns the prologue's end,
    /// its participating GPUs, and the moved `(model, layout)` pairs for
    /// [`Self::switch_to`].
    pub(crate) fn prologue(
        &mut self,
        target: &ExecutionPlan,
        now: f64,
        rng: Option<&mut DeterministicRng>,
    ) -> (f64, Vec<usize>, Vec<(String, CallAssignment)>) {
        let rng = match rng {
            Some(rng) => rng,
            None => &mut self.rng,
        };
        let env = &self.env;
        let mut end = now;
        let mut participants: Vec<usize> = Vec::new();
        let mut moved: Vec<(String, CallAssignment)> = Vec::new();
        for &call in &env.topo {
            let def = env.engine.graph().call(call);
            if moved.iter().any(|(m, _)| *m == def.model_name) {
                continue;
            }
            let Some((pa, pdone)) = self.param_layout.get(&def.model_name).copied() else {
                continue;
            };
            let ta = *target.assignment(call);
            if pa == ta {
                continue;
            }
            let done = execute_realloc(
                &mut self.tl,
                &mut self.trace,
                &env.comm,
                &def.model,
                &pa,
                &ta,
                pdone.max(now),
                rng,
                env.engine.config().jitter_sigma,
                env.clock.as_ref(),
            );
            end = end.max(done);
            participants.extend(pa.mesh.gpus().map(|g| g.0 as usize));
            participants.extend(ta.mesh.gpus().map(|g| g.0 as usize));
            moved.push((def.model_name.clone(), ta));
        }
        participants.sort_unstable();
        participants.dedup();
        (end, participants, moved)
    }

    /// Commits a switch to `plan` whose [`Self::prologue`] moved `moved`:
    /// those models' parameters live on their new layouts from `at`.
    pub(crate) fn switch_to(
        &mut self,
        plan: ExecutionPlan,
        moved: Vec<(String, CallAssignment)>,
        at: f64,
    ) {
        for (model, layout) in moved {
            self.param_layout.insert(model, (layout, at));
        }
        self.draft_costs = draft_cost_models(self.env.engine.cluster(), &plan);
        self.current = plan;
    }

    /// Folds the run into a report: the makespan and per-category busy
    /// seconds of the timelines, and the idle seconds up to the makespan of
    /// the GPUs in `lease`; `initial` is the plan the run started on.
    pub(crate) fn into_report(
        self,
        initial: &ExecutionPlan,
        lease: impl Iterator<Item = usize>,
    ) -> RunReport {
        let total_time = self.tl.makespan();
        let idle_total = lease
            .map(|g| total_time - self.tl.gpu(g).total_busy())
            .sum::<f64>()
            .max(0.0);
        // Boundary to boundary past the first iteration.
        let (iterations, iter_end) = (self.iterations(), &self.iter_end);
        let iter_time = match iterations {
            1 => iter_end[0],
            n => (iter_end[n - 1] - iter_end[0]) / (n - 1) as f64,
        };
        let (cluster, graph) = (self.env.engine.cluster(), self.env.engine.graph());
        let mut async_stats = self.async_stats;
        if self.stale.is_some() {
            async_stats.gen_train_overlap_secs = gen_train_overlap(graph, &self.timings);
        }
        RunReport {
            iterations,
            total_time,
            iter_time,
            timings: self.timings,
            category_totals: self.tl.totals(),
            idle_total,
            mem_peak: self.mem_peak,
            static_utilization: maxmem::static_utilization(cluster, graph, initial),
            trace: self.trace,
            master_log: self.master_log,
            faults: self.faults,
            replan: self.replan,
            async_stats,
        }
    }
}

/// The plan's peak device memory, or [`RunError::OutOfMemory`] when it
/// exceeds capacity (unless the engine skips the memory check).
fn mem_peak(engine: &RuntimeEngine, plan: &ExecutionPlan) -> Result<u64, RunError> {
    let (cluster, config) = (engine.cluster(), engine.config());
    let (zero3, dist_optim) = (&config.zero3_models, &config.dist_optim_models);
    let peak = maxmem::mem_profile(cluster, engine.graph(), plan, zero3, dist_optim).peak();
    if !config.skip_mem_check && peak > cluster.gpu.mem_capacity {
        return Err(RunError::OutOfMemory {
            peak,
            capacity: cluster.gpu.mem_capacity,
        });
    }
    Ok(peak)
}

/// Runs `plan` for `iterations` iterations, leasing the whole cluster: the
/// shape of every single-tenant entry point of [`RuntimeEngine`].
pub(crate) fn run_solo(
    engine: &RuntimeEngine,
    plan: &ExecutionPlan,
    iterations: usize,
    staleness: Option<u32>,
    replan: Option<Replan<'_>>,
) -> Result<RunReport, RunError> {
    let rng = DeterministicRng::from_seed(engine.config().seed).derive("runtime");
    let mut driver = Driver::new(engine.clone(), plan, iterations, rng)?;
    if let Some(bound) = staleness {
        driver = driver.with_staleness(bound);
    }
    for iter in 0..iterations {
        driver.run_iteration(iter, 0.0, replan);
    }
    let gpus = engine.cluster().total_gpus() as usize;
    Ok(driver.into_report(plan, 0..gpus))
}

/// One request as the retry protocol sees it.
struct Attempt<'a> {
    a: &'a CallAssignment,
    def: &'a ModelFunctionCallDef,
    /// The estimator's predicted seconds, when known.
    predicted: Option<f64>,
    iter: usize,
    spec: Option<&'a SpecExec<'a>>,
}

/// Executes one request under the resilient retry protocol (see the
/// `master` module docs), returning its completion time. With a
/// `wait_cap`, when every retry avenue first requires waiting at least the
/// cap for a participant to restart, the attempt is *not* dispatched and
/// `Err((at, gpu))` asks the caller to re-plan; without one, after
/// `max_retries` failed attempts the last runs in degraded mode (past the
/// schedule's last crash, checks disabled), so the protocol always
/// terminates. `ctx.faults` must be `None`: the attempt runs under `clock`,
/// the deadline's nominal pre-simulation without it.
fn dispatch_capped<'a>(
    ctx: &mut ExecCtx<'a>,
    clock: &'a FaultClock,
    req: &Attempt<'_>,
    ready: f64,
    stats: &mut FaultStats,
    wait_cap: Option<f64>,
) -> Result<f64, (f64, u32)> {
    let cfg: &EngineConfig = ctx.cfg;
    // Participants: the target mesh, plus the draft mesh when the call
    // decodes speculatively — availability waits, crash detection, and
    // lost-work accounting all cover the draft workers too.
    let mut mesh: Vec<usize> = req.a.mesh.gpus().map(|g| g.0 as usize).collect();
    if let Some(spec) = req.spec {
        for g in spec.choice.assignment.mesh.gpus() {
            let g = g.0 as usize;
            if !mesh.contains(&g) {
                mesh.push(g);
            }
        }
    }
    let mut attempt_ready = ready;
    let mut failed: u32 = 0;
    loop {
        let degraded = failed > cfg.max_retries;
        // Wait for every participant to be restarted; a degraded attempt
        // additionally waits out the whole crash schedule so it cannot be
        // aborted.
        let mut start = clock.available_from(&mesh, attempt_ready);
        if degraded {
            start = start.max(clock.quiet_after(&mesh));
        }
        if let Some(cap) = wait_cap {
            if start - attempt_ready >= cap {
                // The master cannot see the future: it concludes a worker is
                // dead only after actually waiting out the patience window
                // in silence, so the decision instant is `attempt_ready +
                // cap` — never earlier than the crash that caused the stall.
                // The culprit is whichever participant is still down then.
                let at = attempt_ready + cap;
                let gpu = mesh
                    .iter()
                    .copied()
                    .find(|&g| clock.available_from(&[g], at) > at)
                    .unwrap_or(mesh[0]) as u32;
                return Err((at, gpu));
            }
        }
        stats.dispatches += 1;

        // Fault-free duration from this exact timeline state: cloned
        // timelines and RNG make queueing identical between the nominal and
        // the real attempt, so the deadline fires only on genuine
        // fault-induced stretch, never on queueing delay.
        let nominal_wall = {
            let mut tl_nom = ctx.tl.clone();
            let mut rng_nom = ctx.rng.clone();
            let mut scratch = Trace::disabled();
            let mut nominal = ExecCtx {
                tl: &mut tl_nom,
                trace: &mut scratch,
                rng: &mut rng_nom,
                faults: None,
                ..*ctx
            };
            execute_call_spec(&mut nominal, req.a, req.def.call_type, start, req.spec) - start
        };
        let predicted_wall = req.predicted.map_or(nominal_wall, |p| p.max(nominal_wall));
        let deadline = if cfg.deadline_factor > 0.0 && !degraded {
            cfg.deadline_factor * predicted_wall
        } else {
            f64::INFINITY
        };

        let tl_snap = ctx.tl.clone();
        let rng_snap = ctx.rng.clone();
        let cp = ctx.trace.checkpoint();
        ctx.faults = Some(clock);
        let end = execute_call_spec(ctx, req.a, req.def.call_type, start, req.spec);
        ctx.faults = None;

        let crash = if degraded {
            None
        } else {
            clock.first_crash(&mesh, start, end)
        };
        let timed_out = end - start > deadline;
        if crash.is_none() && !timed_out {
            if failed > 0 {
                stats.requests_retried += 1;
                if degraded {
                    stats.requests_degraded += 1;
                } else {
                    stats.requests_recovered += 1;
                }
            }
            return Ok(end);
        }

        // The attempt is dead: roll back its timeline, RNG, and trace
        // effects, then charge the wasted interval as lost work.
        let abort_at = match crash {
            Some((_, at)) => at.min(start + deadline),
            None => start + deadline,
        };
        *ctx.tl = tl_snap;
        *ctx.rng = rng_snap;
        ctx.trace.rewind(cp);
        if ctx.trace.enabled() {
            for &g in &mesh {
                let s = ctx.tl.gpu(g).busy_until().max(start);
                if s < abort_at {
                    ctx.trace
                        .record(g, s, abort_at, Category::Compute, KernelLabel::LostWork);
                }
            }
        }
        stats.lost_gpu_seconds += ctx
            .tl
            .occupy_until(&mesh, start, abort_at, Category::Compute);

        let kind = match crash {
            Some((g, at)) if at <= start + deadline => FaultAbort::Crash { gpu: g as u32 },
            _ => FaultAbort::Timeout,
        };
        match kind {
            FaultAbort::Crash { .. } => stats.crashes += 1,
            FaultAbort::Timeout => stats.timeouts += 1,
        }
        stats.retries += 1;
        let backoff = (cfg.backoff_base * 2f64.powi(failed as i32))
            .min(cfg.backoff_cap)
            .max(0.0);
        stats.events.push(RequestFault {
            call_name: req.def.call_name.clone(),
            iter: req.iter,
            attempt: failed,
            kind,
            at: abort_at,
            backoff_secs: backoff,
        });

        failed += 1;
        stats.backoff_seconds += backoff;
        attempt_ready = abort_at + backoff;
    }
}
