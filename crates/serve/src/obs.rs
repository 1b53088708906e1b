//! Observability for serving runs: the `serve/*` metrics namespace and
//! per-tenant Chrome-trace lifecycle lanes.
//!
//! [`serve_event_stream`] gives every arrival its own Chrome process row
//! (`tenant:<name>`, the same tenant scope as `real sched`'s per-tenant
//! groups, [`Scope::tenant`]) with one lifecycle lane: a `queued` span from arrival to first
//! admission, then per service [`Segment`](crate::report::Segment) an
//! optional `realloc` prologue span followed by the `serve` span. Open the
//! export in Perfetto and a preempted tenant reads as
//! queued → serve → (gap while suspended) → realloc → serve.
//!
//! Stretch and queue-wait histograms reuse the `real-sched` bucket bounds
//! ([`STRETCH_BOUNDS`], [`QUEUE_WAIT_BOUNDS`]) so dashboards can overlay
//! batch-scheduler and serving runs.

use crate::report::ServeReport;
use real_obs::{EventStream, Lane, MetricsRegistry, Scope};
use real_sched::obs::{QUEUE_WAIT_BOUNDS, STRETCH_BOUNDS};

/// `serve/*` metrics for a finished serving run: admission counters and
/// rates, preemption/resume counters, makespan and weighted flow gauges,
/// utilization, and stretch/queue-wait histograms over served tenants.
pub fn serve_metrics(report: &ServeReport) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.counter_add("serve/arrivals", &[], report.arrivals as f64);
    m.counter_add("serve/admitted", &[], report.admitted as f64);
    m.counter_add("serve/queued", &[], report.queued as f64);
    m.counter_add("serve/rejected", &[], report.rejected as f64);
    m.counter_add("serve/preemptions", &[], report.preemptions as f64);
    m.counter_add("serve/resumes", &[], report.resumes as f64);
    m.counter_add("serve/gate_rejections", &[], report.gate_rejections as f64);
    m.gauge_set("serve/admission_rate", &[], report.admission_rate);
    m.gauge_set("serve/rejection_rate", &[], report.rejection_rate);
    m.gauge_set("serve/makespan_seconds", &[], report.makespan_secs);
    m.gauge_set(
        "serve/weighted_flow_seconds",
        &[],
        report.weighted_flow_secs,
    );
    m.gauge_set("serve/max_stretch", &[], report.max_stretch);
    m.gauge_set("serve/mean_utilization", &[], report.mean_utilization);
    for t in &report.tenants {
        if t.finish_secs.is_none() {
            continue;
        }
        m.histogram_observe("serve/stretch_hist", &[], STRETCH_BOUNDS, t.stretch);
        m.histogram_observe(
            "serve/queue_wait_hist",
            &[],
            QUEUE_WAIT_BOUNDS,
            t.queue_wait_secs,
        );
    }
    m
}

/// One Chrome process group per arrival with a single lifecycle lane (see
/// the module docs). Rejected arrivals contribute a named but span-less
/// group, so a Perfetto view shows them turned away rather than missing.
pub fn serve_event_stream(report: &ServeReport) -> EventStream {
    let mut stream = EventStream::default();
    for (index, t) in report.tenants.iter().enumerate() {
        let lane = Scope::tenant(index, &t.name).name(&mut stream, Lane::Lifecycle);
        if let Some(admitted) = t.admitted_secs {
            if admitted > t.arrival_secs {
                stream.span(lane, "queued", "queue", t.arrival_secs, admitted);
            }
        }
        for (k, seg) in t.segments.iter().enumerate() {
            let mut start = seg.start_secs;
            if seg.realloc_secs > 0.0 {
                stream.span(lane, "realloc", "realloc", start, start + seg.realloc_secs);
                start += seg.realloc_secs;
            }
            stream.span(
                lane,
                &format!("serve#{k}@{}", seg.allocation),
                "serve",
                start,
                seg.end_secs,
            );
            // Suspension gap: queued again until the next segment starts.
            if let Some(next) = t.segments.get(k + 1) {
                stream.span(lane, "queued", "queue", seg.end_secs, next.start_secs);
            }
        }
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionDecision;
    use crate::report::{Segment, ServedTenant, UtilPoint};
    use real_obs::profile::PercentileSummary;

    fn report() -> ServeReport {
        ServeReport {
            seed: 1,
            horizon_secs: 1000.0,
            total_gpus: 8,
            arrivals: 1,
            admitted: 0,
            queued: 1,
            rejected: 0,
            admission_rate: 1.0,
            rejection_rate: 0.0,
            preemptions: 1,
            resumes: 1,
            gate_rejections: 0,
            makespan_secs: 60.0,
            weighted_flow_secs: 55.0,
            max_stretch: 2.0,
            mean_utilization: 0.4,
            utilization: vec![UtilPoint {
                at_secs: 0.0,
                leased_gpus: 0,
            }],
            percentiles: vec![PercentileSummary::from_values("stretch", &[2.0])],
            tenants: vec![ServedTenant {
                name: "a-0".into(),
                id: 0,
                template: 0,
                priority: 1.0,
                iterations: 2,
                decision: AdmissionDecision::Queued,
                arrival_secs: 5.0,
                admitted_secs: Some(10.0),
                finish_secs: Some(60.0),
                queue_wait_secs: 15.0,
                service_secs: 35.0,
                realloc_secs: 4.0,
                preemptions: 1,
                stretch: 2.0,
                segments: vec![
                    Segment {
                        start_secs: 10.0,
                        end_secs: 30.0,
                        iters: 1,
                        realloc_secs: 0.0,
                        allocation: "node0".into(),
                    },
                    Segment {
                        start_secs: 40.0,
                        end_secs: 60.0,
                        iters: 1,
                        realloc_secs: 4.0,
                        allocation: "node1".into(),
                    },
                ],
                iter_secs: vec![20.0, 15.0],
            }],
        }
    }

    #[test]
    fn metrics_cover_admission_and_preemption_counters() {
        let m = serve_metrics(&report());
        assert_eq!(m.get("serve/arrivals", &[]).unwrap().scalar(), 1.0);
        assert_eq!(m.get("serve/preemptions", &[]).unwrap().scalar(), 1.0);
        assert_eq!(m.get("serve/resumes", &[]).unwrap().scalar(), 1.0);
        assert_eq!(m.get("serve/admission_rate", &[]).unwrap().scalar(), 1.0);
        assert_eq!(
            m.get("serve/weighted_flow_seconds", &[]).unwrap().scalar(),
            55.0
        );
    }

    #[test]
    fn event_stream_shows_the_preemption_lifecycle() {
        let stream = serve_event_stream(&report());
        let labels: Vec<&str> = stream
            .events()
            .iter()
            .filter_map(|e| match e {
                real_obs::StreamEvent::Begin { name, .. } => Some(stream.str(*name)),
                _ => None,
            })
            .collect();
        // queued → serve#0 → queued (suspension gap) → realloc → serve#1.
        assert!(labels.iter().filter(|l| **l == "queued").count() >= 2);
        assert!(labels.iter().any(|l| l.starts_with("serve#0")));
        assert!(labels.contains(&"realloc"));
        assert!(labels.iter().any(|l| l.starts_with("serve#1")));
    }
}
