//! `real sched`'s executor: a [`Schedule`] run as one run of
//! [`crate::server`]'s event loop. [`run_sched`] plans and runs a batch of
//! tenants; [`run_schedule`] runs a given (possibly hand-placed) schedule.
//!
//! Each placed tenant is a template whose price table holds one candidate:
//! its allocation, plan, estimated step and solo step. Every tenant arrives
//! at t = 0, in schedule order, under its own id, and is admitted without
//! rejection or preemption, so a time-shared tenant queues for its mesh and
//! an elastic one grows at its iteration boundaries. The loop's finish hook
//! folds each session into the tenant's [`RunReport`]. Sessions run on
//! private timelines with substreams derived from `(seed, tenant id)`, so a
//! tenant on a disjoint allocation gets the report of its 1-tenant
//! schedule, bit for bit, whatever its co-tenants do.

use crate::admission::{TemplateCandidate, TemplatePrices};
use crate::server::{ServeError, Server, Template};
use crate::workload::{AdmissionConfig, Arrival};
use real_cluster::ClusterSpec;
use real_core::Tenant;
use real_estimator::Estimator;
use real_runtime::RunReport;
use real_sched::{SchedReport, Schedule, Scheduler, ServedTimes};

/// A finished `real sched` run: the schedule it executed, the per-tenant
/// runtime reports, and the folded [`SchedReport`].
#[derive(Debug, Clone)]
pub struct SchedOutcome {
    /// The schedule that ran.
    pub schedule: Schedule,
    /// Per-tenant runtime reports, in schedule order. Each is on its
    /// tenant's session clock, which starts when the tenant is admitted,
    /// except `total_time`: the instant on the schedule's clock its last
    /// GPU went idle, so a tenant that queued for its mesh counts its wait.
    pub reports: Vec<RunReport>,
    /// Per-tenant admission instants on the schedule's clock, in schedule
    /// order: where each report's session clock starts.
    pub admitted_secs: Vec<f64>,
    /// Aggregated multi-tenant report.
    pub report: SchedReport,
}

/// Plans `tenants` with `scheduler` and executes the schedule on the
/// scheduler's cluster, seeded by its configured seed.
///
/// # Errors
///
/// [`ServeError::Sched`] when planning fails, [`ServeError::Session`] when
/// a placed plan cannot start.
pub fn run_sched(scheduler: &Scheduler, tenants: &[Tenant]) -> Result<SchedOutcome, ServeError> {
    let (schedule, ests) = scheduler
        .plan_prepared(tenants)
        .map_err(ServeError::Sched)?;
    let seed = scheduler.config().seed;
    execute(scheduler.cluster(), tenants, schedule, ests, seed)
}

/// Executes `schedule` (one placement per entry of `tenants`, in order) on
/// `cluster`. Tenant substreams derive from `seed` and each tenant's id.
///
/// # Errors
///
/// [`ServeError::Session`] when a placed plan cannot start (out of device
/// memory, or zero iterations).
///
/// # Panics
///
/// Panics if `schedule` does not parallel `tenants`.
pub fn run_schedule(
    cluster: &ClusterSpec,
    tenants: &[Tenant],
    schedule: Schedule,
    seed: u64,
) -> Result<SchedOutcome, ServeError> {
    let ests = tenants.iter().map(|t| t.experiment().prepare().0).collect();
    execute(cluster, tenants, schedule, ests, seed)
}

fn execute(
    cluster: &ClusterSpec,
    tenants: &[Tenant],
    schedule: Schedule,
    ests: Vec<Estimator>,
    seed: u64,
) -> Result<SchedOutcome, ServeError> {
    let placed = &schedule.tenants;
    assert_eq!(tenants.len(), placed.len(), "one placement per tenant");
    let mut templates = Vec::with_capacity(placed.len());
    let mut arrivals = Vec::with_capacity(placed.len());
    for (index, ((tenant, p), est)) in tenants.iter().zip(placed).zip(ests).enumerate() {
        let prices = TemplatePrices {
            candidates: vec![TemplateCandidate {
                mesh: p.allocation,
                plan: p.plan.clone(),
                step_secs: p.est_step_secs,
            }],
            solo_step_secs: p.solo_step_secs,
            // Nothing is preempted, so no prologue is ever priced.
            prologue_secs: 0.0,
        };
        let exp = tenant.experiment();
        templates.push(Template::new(
            exp,
            est,
            p.priority,
            p.iterations,
            Some(prices),
        ));
        arrivals.push(Arrival {
            at: 0.0,
            id: p.id,
            name: p.name.clone(),
            template: index,
        });
    }
    let admission = AdmissionConfig {
        admit_all: true,
        preemption: false,
        ..AdmissionConfig::default()
    };
    let mut reports: Vec<Option<RunReport>> = vec![None; placed.len()];
    let mut admitted_secs = vec![0.0; placed.len()];
    let mut times = vec![ServedTimes::default(); placed.len()];
    Server::new(cluster.clone(), seed, admission, templates, arrivals).run(
        |row, session, lease| {
            let mut run = session.into_report(&placed[row.template].plan, &lease);
            let admitted = row.admitted_secs.expect("a finished tenant was admitted");
            run.total_time += admitted;
            reports[row.template] = Some(run);
            admitted_secs[row.template] = admitted;
            times[row.template] = ServedTimes {
                stretch: row.stretch,
                queue_wait_secs: row.queue_wait_secs,
            };
        },
    )?;
    let reports: Vec<RunReport> = reports
        .into_iter()
        .map(|r| r.expect("every admitted tenant finishes"))
        .collect();
    let report = SchedReport::new(&schedule, &reports, &times);
    Ok(SchedOutcome {
        schedule,
        reports,
        admitted_secs,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::DeviceMesh;
    use real_core::Experiment;
    use real_dataflow::algo::RlhfConfig;
    use real_dataflow::{CallAssignment, ExecutionPlan};
    use real_estimator::MemoStats;
    use real_model::{ModelSpec, ParallelStrategy};
    use real_runtime::{EngineConfig, RunError, SessionError};
    use real_sched::TenantPlan;

    /// A deterministic PPO 7B tenant placed on node `node`, every call on
    /// the whole node.
    fn placed_on(
        cluster: &ClusterSpec,
        id: u64,
        node: u32,
        batch: u64,
        iterations: usize,
    ) -> (Tenant, TenantPlan) {
        let actor = ModelSpec::llama3_7b();
        let exp = Experiment::ppo(
            cluster.clone(),
            actor.clone(),
            actor.critic(),
            RlhfConfig::instruct_gpt(batch),
        )
        .with_quick_profile()
        .with_engine_config(EngineConfig::deterministic());
        let mesh = DeviceMesh::whole_nodes(cluster, node, 1).unwrap();
        let a = CallAssignment::new(mesh, ParallelStrategy::new(1, 8, 1, 4).unwrap()).unwrap();
        let graph = exp.graph();
        let plan = ExecutionPlan::new(graph, cluster, vec![a; graph.n_calls()]).unwrap();
        let name = format!("tenant{id}");
        let tenant = Tenant::new(name.clone(), id, exp).with_iterations(iterations);
        let placement = TenantPlan {
            name,
            id,
            priority: 1.0,
            iterations,
            allocation: mesh,
            plan,
            est_step_secs: 0.0,
            solo_step_secs: 0.0,
            time_shared: false,
        };
        (tenant, placement)
    }

    fn run(cluster: &ClusterSpec, placed: &[(Tenant, TenantPlan)], seed: u64) -> Vec<RunReport> {
        let (tenants, plans): (Vec<Tenant>, Vec<TenantPlan>) = placed.iter().cloned().unzip();
        let schedule = Schedule::new(plans, false, MemoStats::default());
        run_schedule(cluster, &tenants, schedule, seed)
            .unwrap()
            .reports
    }

    fn assert_reports_eq(a: &RunReport, b: &RunReport) {
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.iter_time, b.iter_time);
        assert_eq!(a.timings, b.timings);
        assert_eq!(a.category_totals, b.category_totals);
        assert_eq!(a.idle_total, b.idle_total);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.trace.events(), b.trace.events());
    }

    #[test]
    fn disjoint_cotenant_leaves_report_byte_identical_to_solo() {
        let cluster = ClusterSpec::h100(2);
        let t0 = placed_on(&cluster, 0, 0, 64, 2);
        let t1 = placed_on(&cluster, 1, 1, 32, 2);
        let solo = run(&cluster, std::slice::from_ref(&t0), 7);
        let both = run(&cluster, &[t0, t1], 7);
        assert_eq!(both.len(), 2);
        assert_reports_eq(&solo[0], &both[0]);
    }

    #[test]
    fn multi_tenant_runs_replay_bit_identically() {
        let cluster = ClusterSpec::h100(2);
        let tenants = vec![
            placed_on(&cluster, 0, 0, 64, 2),
            placed_on(&cluster, 1, 1, 32, 3),
        ];
        let a = run(&cluster, &tenants, 11);
        let b = run(&cluster, &tenants, 11);
        for (ra, rb) in a.iter().zip(&b) {
            assert_reports_eq(ra, rb);
        }
    }

    #[test]
    fn oversubscribed_tenants_time_share_without_deadlock() {
        let cluster = ClusterSpec::h100(1);
        // Both tenants on the same (only) node: the second waits for it.
        let t0 = placed_on(&cluster, 0, 0, 32, 2);
        let mut t1 = placed_on(&cluster, 1, 0, 32, 2);
        t1.1.time_shared = true;
        let solo = run(&cluster, std::slice::from_ref(&t0), 3);
        let both = run(&cluster, &[t0, t1], 3);
        // The first tenant runs as if alone; the second finishes after it.
        assert_reports_eq(&solo[0], &both[0]);
        assert!(both[1].total_time > solo[0].total_time);
    }

    #[test]
    fn zero_iteration_tenant_is_rejected() {
        let cluster = ClusterSpec::h100(1);
        let (tenant, mut placement) = placed_on(&cluster, 0, 0, 32, 1);
        placement.iterations = 0;
        let schedule = Schedule::new(vec![placement], false, MemoStats::default());
        let err = run_schedule(&cluster, &[tenant], schedule, 1).unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Session(SessionError::Run(RunError::NoIterations))
            ),
            "{err}"
        );
    }
}
