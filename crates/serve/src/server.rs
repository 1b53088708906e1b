//! The cluster-as-a-service event loop.
//!
//! [`serve`] runs a [`WorkloadSpec`] to completion on the virtual clock: a
//! discrete-event loop over two event kinds — **arrivals** from the seeded
//! trace generator and **iteration boundaries** of running tenant sessions.
//! Each arrival gets an admission-time feasibility probe against the
//! pre-priced template table ([`crate::admission::TemplatePrices`]) and is
//! admitted, queued, or rejected; checkpointed preemption suspends a
//! low-priority running tenant at its next iteration boundary, keeping its
//! session to resume from, when the cost/benefit gate says the avoided wait
//! is worth two reallocation prologues.
//!
//! The same loop executes `real sched`'s planned schedules
//! ([`crate::sched`]): one template per placed tenant, priced on its
//! allocation alone, every arrival at t = 0 and admitted without rejection
//! or preemption. A finish hook hands each finished session to the caller;
//! `serve` drops it.
//!
//! # Elastic growth
//!
//! A template whose tenant opts into elastic rebalancing (`elastic` in its
//! spec) grows at its iteration boundaries: when GPUs free at that instant
//! complete a larger §4 mesh holding its lease, the mesh is offered to its
//! session as `FreedCapacity` through the runtime's re-plan gate
//! ([`TenantSession::grow_into`]). On a switch the tenant re-leases the
//! grown mesh and a new service segment starts; each mesh is offered once.
//!
//! # Memory
//!
//! Every arrival keeps its [`ServedTenant`] report row for the whole run;
//! only a running or suspended tenant also holds a
//! [`real_runtime::TenantSession`]. At its finish the session is folded into
//! the row and dropped, so the loop's memory grows with the live tenants,
//! not with the arrivals served so far.
//!
//! # Determinism
//!
//! Everything is seeded and event ordering is total — events sort by
//! `(instant, kind, insertion sequence)` with iteration boundaries ahead of
//! arrivals at equal instants — so the same spec and seed produce a
//! byte-identical [`ServeReport`]. There are no wall-clock reads anywhere
//! in the loop.
//!
//! # Scheduling policy
//!
//! - GPU leases are exclusive: a tenant owns its candidate mesh for the
//!   whole segment (no time-sharing; the queue absorbs overload).
//! - Request deadlines of a faulted template come from its estimator on
//!   the admitted plan ([`EngineConfig::predict_deadlines`]), as in
//!   `real run`.
//! - The wait queue is ordered by priority, suspended tenants ahead of
//!   fresh admissions at equal priority, FIFO (arrival id) within that.
//!   Lower-priority waiters may backfill around a blocked head-of-line.
//! - Preemption marks the victim; the suspension happens at the victim's
//!   next iteration boundary (sessions are never interrupted mid-iteration
//!   and barrier at each boundary, which is what makes a suspended session
//!   resumable bit for bit). With preemption off, sessions pipeline their
//!   iterations instead ([`TenantSession::pipelined`]).

use crate::admission::{
    preemption_gate, price_template, AdmissionDecision, RejectReason, TemplatePrices,
};
use crate::report::{Segment, ServeReport, ServedTenant, UtilPoint};
use crate::workload::{AdmissionConfig, Arrival, WorkloadError, WorkloadSpec};
use real_cluster::{ClusterSpec, DeviceMesh};
use real_core::Experiment;
use real_dataflow::{DataflowGraph, ExecutionPlan};
use real_estimator::{CostMemo, Estimator};
use real_obs::profile::PercentileSummary;
use real_runtime::{EngineConfig, ReplanPolicy, SessionError, TenantSession};
use real_sched::{GraphSet, SchedError, SpecError};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;

/// Why a serving run failed before (or while) executing.
#[derive(Debug)]
pub enum ServeError {
    /// The workload spec failed validation.
    Workload(WorkloadError),
    /// A tenant template failed to build (unknown model, bad graph, ...).
    Spec(SpecError),
    /// A tenant session could not be constructed on an admitted plan.
    Session(SessionError),
    /// `real sched`'s planning failed before anything ran.
    Sched(SchedError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Workload(e) => write!(f, "{e}"),
            ServeError::Spec(e) => write!(f, "{e}"),
            ServeError::Session(e) => write!(f, "session error: {e}"),
            ServeError::Sched(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WorkloadError> for ServeError {
    fn from(e: WorkloadError) -> Self {
        ServeError::Workload(e)
    }
}

impl From<SpecError> for ServeError {
    fn from(e: SpecError) -> Self {
        ServeError::Spec(e)
    }
}

impl From<SessionError> for ServeError {
    fn from(e: SessionError) -> Self {
        ServeError::Session(e)
    }
}

/// A priced, ready-to-instantiate tenant template.
pub(crate) struct Template {
    priority: f64,
    iterations: usize,
    graph: DataflowGraph,
    config: EngineConfig,
    /// The §5 estimator of the template's graph: it fills fault deadlines
    /// at admission and prices elastic growth.
    est: Estimator,
    /// The re-plan gate thresholds of an elastic template; `None` keeps
    /// every lease at its admitted size.
    elastic: Option<ReplanPolicy>,
    /// `None` ⇒ the template fits no mesh: every arrival is rejected
    /// [`RejectReason::Infeasible`].
    prices: Option<TemplatePrices>,
}

impl Template {
    /// The template of `exp`'s tenants, priced by `prices` under `est`.
    pub(crate) fn new(
        exp: &Experiment,
        est: Estimator,
        priority: f64,
        iterations: usize,
        prices: Option<TemplatePrices>,
    ) -> Self {
        Self {
            priority,
            iterations,
            graph: exp.graph().clone(),
            config: exp.engine_config().clone(),
            est,
            elastic: exp.replan_policy().cloned(),
            prices,
        }
    }
}

/// One scheduled event. Ordering: earlier instants first; at equal instants
/// iteration boundaries (`kind 0`) before arrivals (`kind 1`) — freed
/// capacity is visible to an arrival at the same instant; ties broken by
/// insertion sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    at: f64,
    kind: u8,
    seq: u64,
    tenant: usize,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at
            .total_cmp(&other.at)
            .then(self.kind.cmp(&other.kind))
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

const KIND_ITER_END: u8 = 0;
const KIND_ARRIVAL: u8 = 1;

/// Lifecycle phase of one arrival inside the loop. `Pending` covers the
/// span before the arrival event fires — the queue drain must never admit
/// a tenant that has not arrived yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pending,
    Waiting,
    Running,
    Suspended,
    Finished,
    Rejected,
}

/// Per-arrival state. The report row is kept for the whole run and filled
/// in as the arrival moves through the loop; everything needed to execute
/// the tenant lives in `live`, which is dropped at its finish.
struct Served {
    row: ServedTenant,
    phase: Phase,
    wait_since: f64,
    /// `Some` exactly while the tenant is running or suspended. Boxed, so
    /// the slot of a finished or waiting arrival costs one word and the
    /// per-event scans over every slot stay cheap: with `Live` inline a
    /// slot was 512 bytes and `serve-day`'s op ran about a quarter slower.
    live: Option<Box<Live>>,
}

/// A running or suspended tenant's execution state.
struct Live {
    session: TenantSession,
    /// The mesh of the current lease (the last one while suspended).
    home: DeviceMesh,
    /// Wall instant = `wall_offset + session.rel_time()`.
    wall_offset: f64,
    seg_start: f64,
    seg_iters: usize,
    seg_realloc: f64,
    /// Pending preemption: the beneficiary's `served` index.
    preempt_for: Option<usize>,
    /// The last mesh offered for elastic growth.
    offered: Option<DeviceMesh>,
}

pub(crate) struct Server {
    cluster: ClusterSpec,
    seed: u64,
    admission: AdmissionConfig,
    templates: Vec<Template>,
    served: Vec<Served>,
    free: Vec<bool>,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    gate_rejections: usize,
    /// Plan-switching resumes of finished sessions.
    resumes: usize,
    util: Vec<UtilPoint>,
    leased_gpus: u32,
}

/// Runs `spec` to completion and folds the result into a [`ServeReport`].
/// `graphs` resolves any `graph` file references in the tenant templates
/// (pre-loaded by the CLI, exactly as for `real sched`).
///
/// # Errors
///
/// [`ServeError::Workload`] for an invalid spec, [`ServeError::Spec`] when
/// a template fails to build, [`ServeError::Session`] when an admitted plan
/// cannot start (admission prices are memory-checked, so this indicates an
/// estimator/runtime disagreement).
pub fn serve(spec: &WorkloadSpec, graphs: &GraphSet) -> Result<ServeReport, ServeError> {
    // A finished tenant keeps only its report row.
    let server = Server::from_spec(spec, graphs)?.run(|_, _, _| {})?;
    Ok(server.into_report(spec))
}

impl Server {
    /// The loop of `spec`: its templates priced, its arrivals expanded.
    fn from_spec(spec: &WorkloadSpec, graphs: &GraphSet) -> Result<Self, ServeError> {
        spec.validate()?;
        let seed = spec.seed();
        let admission = spec.admission();
        let cluster = ClusterSpec::h100(spec.nodes);
        let arrivals = spec.arrivals();

        // Price every template once; arrivals then probe in O(candidates).
        let mut templates = Vec::with_capacity(spec.templates.len());
        for (index, t) in spec.templates.iter().enumerate() {
            let exp = t.tenant.build_experiment(&cluster, seed, graphs)?;
            let (est, _) = exp.prepare();
            let mut memo = CostMemo::new();
            let probe_steps = admission.probe_steps;
            let prices = price_template(&est, index as u64, seed, probe_steps, &mut memo);
            let priority = t.tenant.priority.unwrap_or(1.0);
            let iterations = t.tenant.iterations.unwrap_or(2);
            templates.push(Template::new(&exp, est, priority, iterations, prices));
        }
        Ok(Self::new(cluster, seed, admission, templates, arrivals))
    }

    /// A loop over `arrivals` (each naming its template by index) on
    /// `cluster`, every GPU free.
    pub(crate) fn new(
        cluster: ClusterSpec,
        seed: u64,
        admission: AdmissionConfig,
        templates: Vec<Template>,
        arrivals: Vec<Arrival>,
    ) -> Self {
        let n_gpus = cluster.total_gpus() as usize;
        let mut server = Server {
            cluster,
            seed,
            admission,
            templates,
            served: Vec::with_capacity(arrivals.len()),
            free: vec![true; n_gpus],
            heap: BinaryHeap::new(),
            seq: arrivals.len() as u64,
            gate_rejections: 0,
            resumes: 0,
            util: vec![UtilPoint {
                at_secs: 0.0,
                leased_gpus: 0,
            }],
            leased_gpus: 0,
        };
        for (i, a) in arrivals.into_iter().enumerate() {
            server.push(Event {
                at: a.at,
                kind: KIND_ARRIVAL,
                seq: i as u64,
                tenant: i,
            });
            let template = &server.templates[a.template];
            let row = ServedTenant {
                name: a.name,
                id: a.id,
                template: a.template,
                priority: template.priority,
                iterations: template.iterations,
                decision: AdmissionDecision::Queued,
                arrival_secs: a.at,
                admitted_secs: None,
                finish_secs: None,
                queue_wait_secs: 0.0,
                service_secs: 0.0,
                realloc_secs: 0.0,
                preemptions: 0,
                stretch: 0.0,
                segments: Vec::new(),
                iter_secs: Vec::new(),
            };
            server.served.push(Served {
                row,
                phase: Phase::Pending,
                wait_since: a.at,
                live: None,
            });
        }
        server
    }

    /// Runs the loop to completion. `finished` receives each tenant's
    /// report row, its session and its last lease as the tenant finishes;
    /// the loop keeps only the row.
    pub(crate) fn run(
        mut self,
        mut finished: impl FnMut(&ServedTenant, TenantSession, DeviceMesh),
    ) -> Result<Self, ServeError> {
        while let Some(Reverse(ev)) = self.heap.pop() {
            if ev.kind == KIND_ARRIVAL {
                self.on_arrival(ev.tenant, ev.at)?;
            } else if let Some((session, lease)) = self.on_iter_end(ev.tenant, ev.at)? {
                finished(&self.served[ev.tenant].row, session, lease);
            }
        }
        Ok(self)
    }

    fn push(&mut self, ev: Event) {
        self.heap.push(Reverse(ev));
    }

    fn prices(&self, template: usize) -> Option<&TemplatePrices> {
        self.templates[template].prices.as_ref()
    }

    /// The mesh and plan of `template`'s fastest candidate that is wholly
    /// free right now.
    fn free_fit(&self, template: usize) -> Option<(DeviceMesh, ExecutionPlan)> {
        let c = self.prices(template)?.fit_on(&self.free)?;
        Some((c.mesh, c.plan.clone()))
    }

    fn live(&self, si: usize) -> &Live {
        self.served[si].live.as_ref().expect("a live tenant")
    }

    fn live_mut(&mut self, si: usize) -> &mut Live {
        self.served[si].live.as_mut().expect("a live tenant")
    }

    fn record_util(&mut self, now: f64) {
        self.util.push(UtilPoint {
            at_secs: now,
            leased_gpus: self.leased_gpus,
        });
    }

    fn lease(&mut self, mesh: DeviceMesh, now: f64) {
        for g in mesh.gpus() {
            debug_assert!(self.free[g.0 as usize], "lease over a leased GPU");
            self.free[g.0 as usize] = false;
        }
        self.leased_gpus += mesh.n_gpus();
        self.record_util(now);
    }

    fn release(&mut self, mesh: DeviceMesh, now: f64) {
        for g in mesh.gpus() {
            self.free[g.0 as usize] = true;
        }
        self.leased_gpus -= mesh.n_gpus();
        self.record_util(now);
    }

    /// Mean measured iteration seconds of a running session (it always has
    /// at least the in-flight iteration recorded — the loop runs sessions
    /// one iteration ahead).
    fn mean_iter(&self, si: usize) -> f64 {
        let v = self.live(si).session.iter_secs();
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// Estimated wall instant a running tenant finishes.
    fn est_finish(&self, si: usize) -> f64 {
        let live = self.live(si);
        let sess = &live.session;
        live.wall_offset + sess.rel_time() + sess.remaining() as f64 * self.mean_iter(si)
    }

    /// Projected wait for a fresh arrival: the estimated instant enough
    /// running tenants have drained for the template to fit, plus the
    /// service of queued tenants ahead of it. A deterministic heuristic —
    /// the stretch bound it feeds is a policy knob, not a guarantee.
    fn projected_wait(&self, si: usize, prices: &TemplatePrices, now: f64) -> f64 {
        let mut running: Vec<(f64, usize)> = (0..self.served.len())
            .filter(|&i| self.served[i].phase == Phase::Running)
            .map(|i| (self.est_finish(i), i))
            .collect();
        running.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut free = self.free.clone();
        let mut fit_wait = 0.0f64;
        for (finish, idx) in running {
            if prices.fit_on(&free).is_some() {
                break;
            }
            for g in self.live(idx).home.gpus() {
                free[g.0 as usize] = true;
            }
            fit_wait = (finish - now).max(fit_wait);
        }
        let me = &self.served[si].row;
        let ahead: f64 = (0..self.served.len())
            .filter(|&i| i != si && self.served[i].phase == Phase::Waiting)
            .map(|i| &self.served[i].row)
            .filter(|w| w.priority > me.priority || (w.priority == me.priority && w.id < me.id))
            .filter_map(|w| {
                self.prices(w.template)
                    .map(|p| p.best_step_secs() * w.iterations as f64)
            })
            .sum();
        fit_wait + ahead
    }

    fn reject(&mut self, si: usize, reason: RejectReason, now: f64) {
        let s = &mut self.served[si];
        s.row.queue_wait_secs += now - s.wait_since;
        s.phase = Phase::Rejected;
        s.row.decision = AdmissionDecision::Rejected { reason };
    }

    /// Admits (or resumes) tenant `si` on `plan`, leasing `mesh`, and runs
    /// its first iteration eagerly, scheduling the boundary event.
    fn admit(
        &mut self,
        si: usize,
        mesh: DeviceMesh,
        plan: &ExecutionPlan,
        now: f64,
    ) -> Result<(), ServeError> {
        let s = &mut self.served[si];
        s.row.queue_wait_secs += now - s.wait_since;
        let (session, wall_offset, seg_realloc) = match s.live.take() {
            Some(mut live) => {
                let rel0 = live.session.rel_time();
                let prologue = live.session.resume_on(plan);
                (live.session, now - rel0, prologue)
            }
            None => {
                let template = &self.templates[s.row.template];
                let mut config = template.config.clone();
                config.predict_deadlines(&template.est, plan);
                let mut session = TenantSession::new(
                    &self.cluster,
                    template.graph.clone(),
                    plan.clone(),
                    config,
                    s.row.id,
                    s.row.iterations,
                    self.seed,
                )?;
                // Only a preemptible tenant needs the boundary barrier that
                // makes its suspension bitwise free.
                if !self.admission.preemption {
                    session = session.pipelined();
                }
                s.row.admitted_secs = Some(now);
                s.row.decision = if s.row.queue_wait_secs == 0.0 {
                    AdmissionDecision::Admitted
                } else {
                    AdmissionDecision::Queued
                };
                (session, now, 0.0)
            }
        };
        s.phase = Phase::Running;
        s.live = Some(Box::new(Live {
            session,
            home: mesh,
            wall_offset,
            seg_start: now,
            seg_iters: 0,
            seg_realloc,
            preempt_for: None,
            offered: None,
        }));
        self.lease(mesh, now);
        self.step(si);
        Ok(())
    }

    /// Runs the next iteration of a running session and schedules its
    /// boundary event.
    fn step(&mut self, si: usize) {
        let live = self.live_mut(si);
        live.session.run_iteration();
        let at = live.wall_offset + live.session.rel_time();
        let seq = self.seq;
        self.seq += 1;
        self.push(Event {
            at,
            kind: KIND_ITER_END,
            seq,
            tenant: si,
        });
    }

    /// Closes tenant `si`'s service segment into its report row and
    /// releases its lease.
    fn end_segment(&mut self, si: usize, now: f64) {
        let Served { row, live, .. } = &mut self.served[si];
        let live = live.as_ref().expect("a segment on a lease");
        row.segments.push(Segment {
            start_secs: live.seg_start,
            end_secs: now,
            iters: live.seg_iters,
            realloc_secs: live.seg_realloc,
            allocation: live.home.to_string(),
        });
        let home = live.home;
        self.release(home, now);
    }

    /// Folds finished tenant `si`'s session into its report row and returns
    /// it with the tenant's last lease: from here on the arrival costs only
    /// its row.
    fn finish(&mut self, si: usize, now: f64) -> (TenantSession, DeviceMesh) {
        let live = self.served[si].live.take().expect("a live tenant");
        let (session, home) = (live.session, live.home);
        self.resumes += session.resumes();
        let s = &mut self.served[si];
        let row = &mut s.row;
        let solo_service = self.templates[row.template]
            .prices
            .as_ref()
            .map(|p| p.solo_step_secs * row.iterations as f64)
            .unwrap_or(0.0);
        s.phase = Phase::Finished;
        row.finish_secs = Some(now);
        row.service_secs = session.iter_secs().iter().sum();
        row.realloc_secs = session.realloc_secs();
        row.iter_secs = session.iter_secs().to_vec();
        if solo_service > 0.0 {
            row.stretch = (now - row.arrival_secs) / solo_service;
        }
        (session, home)
    }

    /// Tries to mark a running victim for checkpointed preemption on behalf
    /// of waiting arrival `si`. Victims are considered lowest priority
    /// first (youngest first within a priority); the first one whose freed
    /// mesh admits the arrival *and* passes the cost/benefit gate is
    /// marked. Returns `true` when a victim was marked.
    fn try_preempt(&mut self, si: usize) -> bool {
        let me = &self.served[si].row;
        let Some(prices) = self.prices(me.template) else {
            return false;
        };
        let mut victims: Vec<usize> = (0..self.served.len())
            .filter(|&i| {
                let v = &self.served[i];
                v.phase == Phase::Running && v.row.priority < me.priority && {
                    let live = self.live(i);
                    live.preempt_for.is_none() && live.session.remaining() > 0
                }
            })
            .collect();
        victims.sort_by(|&a, &b| {
            let (ra, rb) = (&self.served[a].row, &self.served[b].row);
            ra.priority.total_cmp(&rb.priority).then(rb.id.cmp(&ra.id))
        });
        let mut evaluated = false;
        let mut marked = None;
        for vi in victims {
            let (v, live) = (&self.served[vi].row, self.live(vi));
            let mut free = self.free.clone();
            for g in live.home.gpus() {
                free[g.0 as usize] = true;
            }
            let Some(candidate) = prices.fit_on(&free) else {
                continue;
            };
            evaluated = true;
            let victim_remaining = live.session.remaining() as f64 * self.mean_iter(vi);
            let arrival_service = candidate.step_secs * me.iterations as f64;
            let victim_prologue = self
                .prices(v.template)
                .map(|p| p.prologue_secs)
                .unwrap_or(0.0);
            if preemption_gate(
                me.priority,
                victim_remaining,
                v.priority,
                arrival_service,
                victim_prologue,
                self.admission.min_benefit_ratio,
            ) {
                marked = Some(vi);
                break;
            }
        }
        if let Some(vi) = marked {
            self.live_mut(vi).preempt_for = Some(si);
            true
        } else {
            if evaluated {
                self.gate_rejections += 1;
            }
            false
        }
    }

    fn on_arrival(&mut self, si: usize, now: f64) -> Result<(), ServeError> {
        self.served[si].phase = Phase::Waiting;
        let template = self.served[si].row.template;
        if self.prices(template).is_none() {
            self.reject(si, RejectReason::Infeasible, now);
            return Ok(());
        }
        if let Some((mesh, plan)) = self.free_fit(template) {
            return self.admit(si, mesh, &plan, now);
        }
        if self.admission.admit_all {
            return Ok(()); // wait in the queue, never rejected
        }
        if self.admission.preemption && self.try_preempt(si) {
            return Ok(()); // wait for the victim's iteration boundary
        }
        let prices = self.prices(template).expect("checked above");
        let wait = self.projected_wait(si, prices, now);
        let iterations = self.served[si].row.iterations as f64;
        let service = prices.best_step_secs() * iterations;
        let solo = prices.solo_step_secs * iterations;
        let projected = (wait + service) / solo;
        if projected > self.admission.max_stretch {
            self.reject(si, RejectReason::StretchBound, now);
        }
        Ok(())
    }

    /// Handles tenant `si`'s iteration boundary at `now`; returns the
    /// session and last lease of a tenant that finished.
    fn on_iter_end(
        &mut self,
        si: usize,
        now: f64,
    ) -> Result<Option<(TenantSession, DeviceMesh)>, ServeError> {
        debug_assert_eq!(self.served[si].phase, Phase::Running);
        let live = self.live_mut(si);
        live.seg_iters += 1;
        let done = live.session.is_done();
        let beneficiary = live.preempt_for.take();
        if done {
            self.end_segment(si, now);
            let finished = self.finish(si, now);
            self.drain_queue(now)?;
            return Ok(Some(finished));
        }
        if let Some(beneficiary) = beneficiary {
            if self.served[beneficiary].phase == Phase::Waiting {
                // Suspend at this boundary: free the mesh, keep the session
                // to resume from, and let the queue drain admit the
                // beneficiary.
                self.end_segment(si, now);
                let s = &mut self.served[si];
                s.phase = Phase::Suspended;
                s.wait_since = now;
                s.row.preemptions += 1;
                self.drain_queue(now)?;
                return Ok(None);
            }
            // Beneficiary got capacity some other way; keep running.
        }
        self.try_grow(si, now);
        self.step(si);
        Ok(None)
    }

    /// Offers elastic running tenant `si` the largest §4 mesh that holds
    /// its lease and whose other GPUs are free at this boundary; on a
    /// switch the tenant re-leases the grown mesh in a new segment.
    fn try_grow(&mut self, si: usize, now: f64) {
        let Served { row, live, .. } = &mut self.served[si];
        let template = &self.templates[row.template];
        let Some(policy) = template.elastic.as_ref() else {
            return;
        };
        let live = live.as_mut().expect("a live tenant");
        let home = live.home;
        let free = &self.free;
        let grown = DeviceMesh::enumerate(&self.cluster)
            .into_iter()
            .filter(|m| m.n_gpus() > home.n_gpus() && m.contains_mesh(&home))
            .filter(|m| m.gpus().all(|g| free[g.0 as usize] || home.contains(g)))
            .max_by_key(DeviceMesh::n_gpus);
        let Some(grown) = grown.filter(|m| live.offered != Some(*m)) else {
            return;
        };
        live.offered = Some(grown);
        let new_gpus = grown.n_gpus() - home.n_gpus();
        if !live
            .session
            .grow_into(&grown, new_gpus, policy, &template.est)
        {
            return;
        }
        self.end_segment(si, now);
        let live = self.live_mut(si);
        live.home = grown;
        live.seg_start = now;
        live.seg_iters = 0;
        live.seg_realloc = 0.0;
        self.lease(grown, now);
    }

    /// Admits every waiting tenant that fits the freed capacity, in
    /// priority order (suspended before fresh at equal priority, FIFO
    /// within). Fresh admissions re-check the stretch bound against their
    /// *realized* wait — a queued arrival whose wait has already blown the
    /// bound is rejected late rather than served pointlessly.
    fn drain_queue(&mut self, now: f64) -> Result<(), ServeError> {
        let mut waiting: Vec<usize> = (0..self.served.len())
            .filter(|&i| matches!(self.served[i].phase, Phase::Waiting | Phase::Suspended))
            .collect();
        waiting.sort_by(|&a, &b| {
            let (sa, sb) = (&self.served[a], &self.served[b]);
            sb.row
                .priority
                .total_cmp(&sa.row.priority)
                .then_with(|| {
                    let fresh = |s: &Served| u8::from(s.phase != Phase::Suspended);
                    fresh(sa).cmp(&fresh(sb))
                })
                .then(sa.row.id.cmp(&sb.row.id))
        });
        for si in waiting {
            let template = self.served[si].row.template;
            if self.prices(template).is_none() {
                continue;
            }
            if self.served[si].phase == Phase::Suspended {
                // Prefer the last mesh: a same-plan resume is free.
                let live = self.live(si);
                let home = live.home;
                if home.gpus().all(|g| self.free[g.0 as usize]) {
                    let plan = live.session.plan().clone();
                    self.admit(si, home, &plan, now)?;
                    continue;
                }
            } else if !self.admission.admit_all {
                // Fresh admission: late stretch check on the realized wait.
                let prices = self.prices(template).expect("checked above");
                let me = &self.served[si].row;
                let waited = now - me.arrival_secs;
                let service = prices.best_step_secs() * me.iterations as f64;
                let solo = prices.solo_step_secs * me.iterations as f64;
                let over = (waited + service) / solo > self.admission.max_stretch;
                if over {
                    self.reject(si, RejectReason::StretchBound, now);
                    continue;
                }
            }
            if let Some((mesh, plan)) = self.free_fit(template) {
                self.admit(si, mesh, &plan, now)?;
            }
        }
        Ok(())
    }

    fn into_report(self, spec: &WorkloadSpec) -> ServeReport {
        debug_assert!(
            self.served.iter().all(|s| s.live.is_none()),
            "every admitted tenant finishes"
        );
        let total_gpus = self.cluster.total_gpus();
        let tenants: Vec<ServedTenant> = self.served.into_iter().map(|s| s.row).collect();
        let arrivals = tenants.len();
        let admitted = tenants
            .iter()
            .filter(|t| t.decision == AdmissionDecision::Admitted)
            .count();
        let queued = tenants
            .iter()
            .filter(|t| t.decision == AdmissionDecision::Queued && t.finish_secs.is_some())
            .count();
        let rejected = tenants
            .iter()
            .filter(|t| matches!(t.decision, AdmissionDecision::Rejected { .. }))
            .count();
        let makespan_secs = tenants
            .iter()
            .filter_map(|t| t.finish_secs)
            .fold(0.0, f64::max);
        let weighted_flow_secs = tenants
            .iter()
            .filter_map(|t| t.finish_secs.map(|f| t.priority * (f - t.arrival_secs)))
            .sum();
        let max_stretch = tenants.iter().map(|t| t.stretch).fold(0.0, f64::max);
        let served_waits: Vec<f64> = tenants
            .iter()
            .filter(|t| t.finish_secs.is_some())
            .map(|t| t.queue_wait_secs)
            .collect();
        let stretches: Vec<f64> = tenants
            .iter()
            .filter(|t| t.finish_secs.is_some())
            .map(|t| t.stretch)
            .collect();
        let mean_utilization = mean_utilization(&self.util, makespan_secs, total_gpus);
        ServeReport {
            seed: self.seed,
            horizon_secs: spec.horizon(),
            total_gpus,
            arrivals,
            admitted,
            queued,
            rejected,
            admission_rate: rate(admitted + queued, arrivals),
            rejection_rate: rate(rejected, arrivals),
            preemptions: tenants.iter().map(|t| t.preemptions).sum(),
            resumes: self.resumes,
            gate_rejections: self.gate_rejections,
            makespan_secs,
            weighted_flow_secs,
            max_stretch,
            mean_utilization,
            utilization: self.util,
            percentiles: vec![
                PercentileSummary::from_values("stretch", &stretches),
                PercentileSummary::from_values("queue-wait-seconds", &served_waits),
            ],
            tenants,
        }
    }
}

fn rate(n: usize, of: usize) -> f64 {
    if of == 0 {
        0.0
    } else {
        n as f64 / of as f64
    }
}

/// Time-weighted mean of `leased / total` over `[0, makespan]` from the
/// lease-change step timeline.
fn mean_utilization(util: &[UtilPoint], makespan: f64, total_gpus: u32) -> f64 {
    if makespan <= 0.0 || total_gpus == 0 {
        return 0.0;
    }
    let mut area = 0.0;
    for w in util.windows(2) {
        let span = (w[1].at_secs.min(makespan) - w[0].at_secs.min(makespan)).max(0.0);
        area += span * f64::from(w[0].leased_gpus);
    }
    if let Some(last) = util.last() {
        area += (makespan - last.at_secs.min(makespan)) * f64::from(last.leased_gpus);
    }
    area / (makespan * f64::from(total_gpus))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ArrivalSpec, TemplateSpec};
    use real_dataflow::algo::RlhfConfig;
    use real_model::ModelSpec;
    use real_runtime::ReplanReason;
    use real_sched::TenantSpec;
    use real_sim::FaultPlan;

    fn tenant(name: &str, priority: f64, iterations: usize, batch: u64) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            id: None,
            priority: Some(priority),
            algo: Some("dpo".into()),
            actor: Some("7b".into()),
            critic: None,
            batch: Some(batch),
            graph: None,
            iterations: Some(iterations),
            faults: None,
            elastic: None,
        }
    }

    fn trace_spec(times: Vec<f64>, templates: Vec<TemplateSpec>) -> WorkloadSpec {
        WorkloadSpec {
            nodes: 2,
            seed: Some(5),
            horizon_secs: Some(100_000.0),
            arrivals: ArrivalSpec::Trace {
                times_secs: times,
                templates: None,
            },
            templates,
            admission: None,
        }
    }

    #[test]
    fn a_single_arrival_runs_solo_and_finishes() {
        let spec = trace_spec(
            vec![0.0],
            vec![TemplateSpec {
                tenant: tenant("solo", 1.0, 2, 32),
                weight: None,
            }],
        );
        let report = serve(&spec, &GraphSet::new()).unwrap();
        assert_eq!(report.arrivals, 1);
        assert_eq!(report.admitted, 1);
        assert_eq!(report.rejected, 0);
        let t = &report.tenants[0];
        assert_eq!(t.decision, AdmissionDecision::Admitted);
        assert_eq!(t.iter_secs.len(), 2);
        assert!(t.finish_secs.unwrap() > 0.0);
        assert_eq!(t.queue_wait_secs, 0.0);
        assert!(report.mean_utilization > 0.0 && report.mean_utilization <= 1.0);
        assert!((report.makespan_secs - t.finish_secs.unwrap()).abs() < 1e-9);
    }

    #[test]
    fn contended_arrivals_queue_and_drain_deterministically() {
        // Several same-priority tenants arriving together on a small
        // cluster: some queue, all eventually finish, none rejected (the
        // wait stays within the default stretch bound for these tiny jobs
        // only if capacity frees fast — allow rejections, but require
        // determinism and conservation).
        let spec = trace_spec(
            vec![0.0, 0.0, 1.0, 2.0],
            vec![TemplateSpec {
                tenant: tenant("job", 1.0, 1, 32),
                weight: None,
            }],
        );
        let a = serve(&spec, &GraphSet::new()).unwrap();
        let b = serve(&spec, &GraphSet::new()).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed, byte-identical report"
        );
        assert_eq!(a.arrivals, 4);
        assert_eq!(a.admitted + a.queued + a.rejected, 4);
        // Leases are exclusive: the utilization timeline never exceeds the
        // cluster.
        assert!(a.utilization.iter().all(|u| u.leased_gpus <= a.total_gpus));
    }

    #[test]
    fn admit_all_never_rejects() {
        let mut spec = trace_spec(
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![TemplateSpec {
                tenant: tenant("burst", 1.0, 1, 32),
                weight: None,
            }],
        );
        spec.admission = Some(crate::workload::AdmissionSpec {
            max_stretch: None,
            admit_all: Some(true),
            preemption: None,
            min_benefit_ratio: None,
            probe_steps: None,
        });
        let report = serve(&spec, &GraphSet::new()).unwrap();
        assert_eq!(report.rejected, 0);
        assert!(
            report.tenants.iter().all(|t| t.finish_secs.is_some()),
            "everyone eventually served"
        );
    }

    #[test]
    fn a_high_priority_burst_preempts_a_low_priority_tenant() {
        // One long low-priority tenant holds the cluster's best mesh; a
        // 100x-priority arrival lands mid-run. The gate fires: victim
        // suspended at an iteration boundary, beneficiary served, victim
        // resumed and finished afterwards.
        let mut spec = trace_spec(
            Vec::new(),
            vec![
                TemplateSpec {
                    tenant: tenant("lowpri", 0.1, 12, 64),
                    weight: None,
                },
                TemplateSpec {
                    tenant: tenant("highpri", 10.0, 1, 32),
                    weight: None,
                },
            ],
        );
        spec.arrivals = ArrivalSpec::Trace {
            times_secs: vec![0.0, 5.0],
            templates: Some(vec![0, 1]),
        };
        let report = serve(&spec, &GraphSet::new()).unwrap();
        assert_eq!(report.arrivals, 2);
        let victim = &report.tenants[0];
        let burst = &report.tenants[1];
        assert!(report.preemptions >= 1, "gate should fire: {report:?}");
        assert!(victim.preemptions >= 1);
        assert_eq!(victim.iter_secs.len(), 12, "victim still ran everything");
        assert!(victim.finish_secs.is_some());
        assert!(burst.finish_secs.is_some());
        assert!(
            burst.finish_secs.unwrap() < victim.finish_secs.unwrap(),
            "the burst jumps ahead of the victim"
        );
        assert!(victim.segments.len() >= 2, "suspension splits the service");
    }

    #[test]
    fn infeasible_templates_are_rejected_at_arrival() {
        // A 70B actor cannot fit one 8-GPU node under any strategy.
        let mut spec = trace_spec(
            vec![0.0],
            vec![TemplateSpec {
                tenant: tenant("huge", 1.0, 1, 512),
                weight: None,
            }],
        );
        spec.nodes = 1;
        spec.templates[0].tenant.actor = Some("70b".into());
        let report = serve(&spec, &GraphSet::new()).unwrap();
        assert_eq!(report.rejected, 1);
        assert_eq!(
            report.tenants[0].decision,
            AdmissionDecision::Rejected {
                reason: RejectReason::Infeasible
            }
        );
    }

    /// A faulted template's session takes its request deadlines from the
    /// template's estimator on the admitted plan, as `real run` does for
    /// the same plan; with jitter off it then runs that plan exactly as
    /// `Experiment::run` does, faults included.
    #[test]
    fn a_faulted_template_gets_the_deadlines_of_real_run() {
        let cluster = ClusterSpec::h100(1);
        let config = EngineConfig {
            deadline_factor: 1.1,
            ..EngineConfig::deterministic()
        };
        let exp = Experiment::dpo(
            cluster.clone(),
            ModelSpec::llama3_7b(),
            RlhfConfig::instruct_gpt(32),
        )
        .with_quick_profile()
        .with_engine_config(config)
        .with_fault_plan(FaultPlan::new(2).slowdown(3, 0.0, 1000.0, 1.6));
        let (est, _) = exp.prepare();
        let prices = price_template(&est, 0, 5, 200, &mut CostMemo::new());
        let plan = prices.as_ref().unwrap().candidates[0].plan.clone();
        let template = Template::new(&exp, est.clone(), 1.0, 2, prices);
        let arrival = Arrival {
            at: 0.0,
            id: 0,
            name: "faulted".into(),
            template: 0,
        };
        // Without preemption the session pipelines its iterations, as a
        // solo run does.
        let admission = AdmissionConfig {
            preemption: false,
            ..AdmissionConfig::default()
        };
        let mut sessions = Vec::new();
        Server::new(cluster.clone(), 5, admission, vec![template], vec![arrival])
            .run(|_, session, _| sessions.push(session))
            .unwrap();
        let session = sessions.pop().unwrap();

        let mut expected = exp.engine_config().clone();
        expected.predict_deadlines(&est, &plan);
        assert!(!expected.predicted_secs.is_empty());
        assert_eq!(
            session.engine_config().predicted_secs,
            expected.predicted_secs
        );
        let run = exp.run(&plan, 2).unwrap().run;
        assert!(run.faults.timeouts > 0, "{:?}", run.faults);
        let served = session.into_report(&plan, &DeviceMesh::full(&cluster));
        assert_eq!(served.faults, run.faults);
        assert_eq!(served.timings, run.timings);
    }

    /// An elastic tenant admitted on one node grows into the node its
    /// co-tenant frees, through the re-plan gate at its next boundary. The
    /// same workload with the template non-elastic never offers capacity,
    /// and the co-tenant's row is bit-identical either way.
    #[test]
    fn an_elastic_tenant_grows_into_freed_capacity() {
        let run = |elastic: bool| {
            let mut short = tenant("short", 1.0, 2, 4);
            short.algo = Some("remax".into());
            short.actor = Some("1b".into());
            let mut long = tenant("long", 1.0, 10, 64);
            long.elastic = Some(elastic);
            let mut spec = trace_spec(
                Vec::new(),
                vec![
                    TemplateSpec {
                        tenant: short,
                        weight: None,
                    },
                    TemplateSpec {
                        tenant: long,
                        weight: None,
                    },
                ],
            );
            spec.seed = Some(1);
            spec.arrivals = ArrivalSpec::Trace {
                times_secs: vec![0.0, 0.1],
                templates: Some(vec![0, 1]),
            };
            let mut replans = Vec::new();
            let server = Server::from_spec(&spec, &GraphSet::new())
                .unwrap()
                .run(|_, session, lease| {
                    let initial = session.plan().clone();
                    replans.push(session.into_report(&initial, &lease).replan);
                })
                .unwrap();
            (server.into_report(&spec), replans)
        };
        let (grown, replans) = run(true);
        let (fixed, fixed_replans) = run(false);

        // Finish order: the short co-tenant first.
        let stats = &replans[1];
        assert!(
            stats
                .events
                .iter()
                .any(|e| matches!(e.reason, ReplanReason::FreedCapacity { gpus: 8 })),
            "{stats:?}"
        );
        assert_eq!(stats.switches, 1, "{stats:?}");
        let long = &grown.tenants[1];
        let allocations: Vec<&str> = long
            .segments
            .iter()
            .map(|s| s.allocation.as_str())
            .collect();
        assert_eq!(allocations, ["node1", "node[0-1]"]);
        assert!(long.finish_secs < fixed.tenants[1].finish_secs);

        assert!(fixed_replans.iter().all(|s| s.evaluations == 0));
        assert_eq!(fixed.tenants[1].segments.len(), 1);
        assert_eq!(
            serde_json::to_string(&grown.tenants[0]).unwrap(),
            serde_json::to_string(&fixed.tenants[0]).unwrap()
        );
    }
}
