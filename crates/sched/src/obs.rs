//! Observability for multi-tenant runs: per-tenant Chrome-trace process
//! groups and the `sched/*` metrics namespace.
//!
//! [`sched_event_stream`] records every tenant's run with the runtime's
//! run recorder ([`real_runtime::obs::record_run`]) in the tenant's own
//! scope ([`Scope::tenant`]): one `tenant:<name>` process holding every
//! lane of its solo export. Each run is on its session clock, which starts
//! when the tenant is admitted; the scope shifts it by the admission
//! instant ([`Scope::shifted`]), so in Perfetto every tenant sits on the
//! schedule's clock and a tenant that queued for its mesh starts where the
//! one it waited for finished.

use crate::report::SchedReport;
use crate::scheduler::Schedule;
use real_core::Tenant;
use real_obs::{EventStream, Lane, MetricsRegistry, Scope};
use real_runtime::RunReport;

/// Histogram bucket bounds for per-tenant stretch observations
/// (`sched/stretch_hist`): stretch 1.0 is a solo-speed run, the top bucket
/// collects pathological starvation.
pub const STRETCH_BOUNDS: &[f64] = &[1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0];

/// Histogram bucket bounds for per-tenant queue-wait seconds
/// (`sched/queue_wait_hist`).
pub const QUEUE_WAIT_BOUNDS: &[f64] = &[0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0];

/// Builds one event stream with a Chrome process group per tenant: each
/// tenant's run (`reports`, parallel to the schedule) recorded in its
/// tenant scope from its admission instant on the schedule's clock
/// (`admitted_secs`, parallel too), with the graph, plan and engine config
/// it ran with. Every lane of a tenant's allocation is named up front, so
/// an idle or untraced tenant still shows its process group.
///
/// # Panics
///
/// Panics if `tenants` or `admitted_secs` does not parallel the schedule.
pub fn sched_event_stream(
    tenants: &[Tenant],
    schedule: &Schedule,
    reports: &[RunReport],
    admitted_secs: &[f64],
) -> EventStream {
    let placed = &schedule.tenants;
    assert_eq!(tenants.len(), placed.len(), "one tenant per scheduled slot");
    assert_eq!(admitted_secs.len(), placed.len(), "one admission per slot");
    let mut stream = EventStream::default();
    let runs = tenants.iter().zip(placed).zip(reports).zip(admitted_secs);
    for (index, (((tenant, placed), report), &admitted)) in runs.enumerate() {
        let scope = Scope::tenant(index, &placed.name).shifted(admitted);
        for gpu in placed.allocation.gpus() {
            scope.name(&mut stream, Lane::Gpu(gpu.0 as usize));
        }
        let exp = tenant.experiment();
        real_runtime::obs::record_run(
            &mut stream,
            &scope,
            exp.cluster(),
            exp.graph(),
            &placed.plan,
            exp.engine_config(),
            report,
        );
    }
    stream
}

/// `sched/*` metrics for a finished multi-tenant run: aggregate gauges
/// (tenant count, weighted makespan, fairness index, max stretch) plus
/// per-tenant labeled stretch/step/total gauges and realloc counters.
pub fn sched_metrics(report: &SchedReport) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.gauge_set("sched/tenants", &[], report.tenants.len() as f64);
    m.gauge_set("sched/makespan_seconds", &[], report.makespan_secs);
    m.gauge_set(
        "sched/weighted_makespan_seconds",
        &[],
        report.weighted_makespan_secs,
    );
    m.gauge_set("sched/max_stretch", &[], report.max_stretch);
    m.gauge_set("sched/fairness_index", &[], report.fairness_index);
    m.counter_add("sched/reallocs", &[], report.total_reallocs as f64);
    m.gauge_set(
        "sched/oversubscribed",
        &[],
        if report.oversubscribed { 1.0 } else { 0.0 },
    );
    // Planning-time memo-cache effectiveness: the admission sweep shares
    // one pricing cache per tenant across every candidate-mesh probe, so a
    // healthy schedule shows a hit rate well above zero.
    m.counter_add("sched/memo_hits", &[], report.memo.hits as f64);
    m.counter_add("sched/memo_misses", &[], report.memo.misses as f64);
    m.ratio_gauge(
        "sched/memo_hit_rate",
        &[],
        report.memo.hits as f64,
        (report.memo.hits + report.memo.misses) as f64,
    );
    for t in &report.tenants {
        let labels = [("tenant", t.name.as_str())];
        m.gauge_set("sched/stretch", &labels, t.stretch);
        m.histogram_observe("sched/stretch_hist", &[], STRETCH_BOUNDS, t.stretch);
        m.histogram_observe(
            "sched/queue_wait_hist",
            &[],
            QUEUE_WAIT_BOUNDS,
            t.queue_wait_secs,
        );
        m.gauge_set("sched/step_seconds", &labels, t.measured_step_secs);
        m.gauge_set("sched/total_seconds", &labels, t.total_secs);
        m.gauge_set("sched/steps_per_sec", &labels, t.steps_per_sec);
        m.counter_add("sched/reallocs", &labels, t.reallocs as f64);
        m.counter_add("sched/faults_injected", &labels, t.faults_injected as f64);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_estimator::MemoStats;

    #[test]
    fn sched_metrics_expose_the_planning_memo_hit_rate() {
        let report = SchedReport {
            tenants: Vec::new(),
            makespan_secs: 0.0,
            weighted_makespan_secs: 0.0,
            max_stretch: 0.0,
            fairness_index: 1.0,
            total_reallocs: 0,
            oversubscribed: false,
            memo: MemoStats {
                hits: 30,
                misses: 10,
                invalidations: 1,
                entries: 10,
            },
            percentiles: Vec::new(),
        };
        let m = sched_metrics(&report);
        assert_eq!(m.get("sched/memo_hits", &[]).unwrap().scalar(), 30.0);
        assert_eq!(m.get("sched/memo_misses", &[]).unwrap().scalar(), 10.0);
        assert_eq!(m.get("sched/memo_hit_rate", &[]).unwrap().scalar(), 0.75);
    }
}
