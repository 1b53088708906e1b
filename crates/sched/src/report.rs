//! The aggregated multi-tenant run report.
//!
//! [`SchedReport`] folds the schedule and the per-tenant
//! [`RunReport`]s into the numbers an operator
//! cares about: measured step time and throughput per tenant, realized
//! stretch (time from arrival to finish, queue wait included, vs. the
//! estimated solo full-cluster service time), the priority-weighted
//! makespan the scheduler optimized, and a Jain fairness index over
//! inverse stretches — `1.0` means every tenant is slowed down equally,
//! lower values mean the slowdown is concentrated on few tenants.

use crate::scheduler::Schedule;
use real_estimator::MemoStats;
use real_obs::profile::PercentileSummary;
use real_runtime::RunReport;
use serde::{Deserialize, Serialize};

/// One tenant's measured outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantOutcome {
    /// Tenant display name.
    pub name: String,
    /// Stable tenant id.
    pub id: u64,
    /// Priority weight.
    pub priority: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Allocated mesh, rendered (e.g. `node0`, `node[0-1]`).
    pub allocation: String,
    /// GPUs in the allocation.
    pub gpus: u32,
    /// Scheduler-estimated step seconds on the allocation.
    pub est_step_secs: f64,
    /// Estimated step seconds running alone on the full cluster.
    pub solo_step_secs: f64,
    /// Measured steady-state step seconds.
    pub measured_step_secs: f64,
    /// Virtual seconds from the schedule's start until the tenant's last GPU
    /// went idle, queue wait included.
    pub total_secs: f64,
    /// Realized slowdown: (finish − arrival) over iterations × solo step,
    /// as the serving loop measures it, so queue wait counts.
    pub stretch: f64,
    /// Seconds from arrival until admission onto the allocation (the
    /// serving loop's queue wait).
    pub queue_wait_secs: f64,
    /// Measured RLHF iterations per second.
    pub steps_per_sec: f64,
    /// Elastic re-plan switches committed (freed-capacity grabs).
    pub reallocs: u64,
    /// Fault events injected into this tenant's fault domain.
    pub faults_injected: usize,
    /// Whether the allocation was time-shared with another tenant.
    pub time_shared: bool,
}

/// One tenant's times as the serving loop measured them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServedTimes {
    /// [`TenantOutcome::stretch`].
    pub stretch: f64,
    /// [`TenantOutcome::queue_wait_secs`].
    pub queue_wait_secs: f64,
}

/// The aggregated multi-tenant report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchedReport {
    /// Per-tenant outcomes, in admission order.
    pub tenants: Vec<TenantOutcome>,
    /// Measured makespan: the last tenant's finish time.
    pub makespan_secs: f64,
    /// Measured priority-weighted makespan `Σᵢ pᵢ·totalᵢ`.
    pub weighted_makespan_secs: f64,
    /// Worst realized per-tenant stretch.
    pub max_stretch: f64,
    /// Jain fairness index over inverse stretches, in `(0, 1]`.
    pub fairness_index: f64,
    /// Total committed elastic re-plan switches.
    pub total_reallocs: u64,
    /// Whether any allocation was time-shared.
    pub oversubscribed: bool,
    /// Planning-time memo-cache statistics, carried over from
    /// [`Schedule::memo`]: the admission sweep's shared per-tenant caches.
    pub memo: MemoStats,
    /// Stretch and queue-wait p50/p95/p99 summaries across the tenants
    /// (the same rows `real serve` reports, so batch and serving runs can
    /// be compared percentile-for-percentile).
    pub percentiles: Vec<PercentileSummary>,
}

impl SchedReport {
    /// Folds a finished run. `reports` and `times` must parallel
    /// `schedule.tenants` (as `real_serve::run_sched` produces them).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn new(schedule: &Schedule, reports: &[RunReport], times: &[ServedTimes]) -> Self {
        assert_eq!(
            schedule.tenants.len(),
            reports.len(),
            "one report per scheduled tenant"
        );
        assert_eq!(reports.len(), times.len(), "one time per report");
        let tenants: Vec<TenantOutcome> = schedule
            .tenants
            .iter()
            .zip(reports)
            .zip(times)
            .map(|((placed, run), served)| TenantOutcome {
                name: placed.name.clone(),
                id: placed.id,
                priority: placed.priority,
                iterations: run.iterations,
                allocation: placed.allocation.to_string(),
                gpus: placed.allocation.n_gpus(),
                est_step_secs: placed.est_step_secs,
                solo_step_secs: placed.solo_step_secs,
                measured_step_secs: run.iter_time,
                total_secs: run.total_time,
                stretch: served.stretch,
                queue_wait_secs: served.queue_wait_secs,
                steps_per_sec: if run.total_time > 0.0 {
                    run.iterations as f64 / run.total_time
                } else {
                    0.0
                },
                reallocs: run.replan.switches,
                faults_injected: run.faults.injected,
                time_shared: placed.time_shared,
            })
            .collect();
        let makespan_secs = tenants.iter().map(|t| t.total_secs).fold(0.0, f64::max);
        let weighted_makespan_secs = tenants.iter().map(|t| t.priority * t.total_secs).sum();
        let max_stretch = tenants.iter().map(|t| t.stretch).fold(0.0, f64::max);
        let total_reallocs = tenants.iter().map(|t| t.reallocs).sum();
        let oversubscribed = tenants.iter().any(|t| t.time_shared);
        let stretches: Vec<f64> = tenants.iter().map(|t| t.stretch).collect();
        let waits: Vec<f64> = tenants.iter().map(|t| t.queue_wait_secs).collect();
        Self {
            fairness_index: jain_index(&tenants),
            percentiles: vec![
                PercentileSummary::from_values("stretch", &stretches),
                PercentileSummary::from_values("queue-wait-seconds", &waits),
            ],
            tenants,
            makespan_secs,
            weighted_makespan_secs,
            max_stretch,
            total_reallocs,
            oversubscribed,
            memo: schedule.memo,
        }
    }

    /// Renders the report as an aligned table plus aggregate summary.
    pub fn render(&self) -> String {
        let mut table = real_util::Table::new(vec![
            "tenant",
            "prio",
            "allocation",
            "step (s)",
            "stretch",
            "steps/s",
            "total (s)",
            "reallocs",
            "faults",
            "shared",
        ]);
        for t in &self.tenants {
            table.row(vec![
                t.name.clone(),
                format!("{:.1}", t.priority),
                t.allocation.clone(),
                format!("{:.3}", t.measured_step_secs),
                format!("{:.2}", t.stretch),
                format!("{:.4}", t.steps_per_sec),
                format!("{:.1}", t.total_secs),
                t.reallocs.to_string(),
                t.faults_injected.to_string(),
                if t.time_shared { "yes" } else { "no" }.to_string(),
            ]);
        }
        let mut out = table.render();
        if !self.percentiles.is_empty() {
            let mut pct =
                real_util::Table::new(vec!["percentile", "count", "p50", "p95", "p99", "max"]);
            for p in &self.percentiles {
                pct.row(vec![
                    p.name.clone(),
                    p.count.to_string(),
                    format!("{:.3}", p.p50),
                    format!("{:.3}", p.p95),
                    format!("{:.3}", p.p99),
                    format!("{:.3}", p.max),
                ]);
            }
            out.push('\n');
            out.push_str(&pct.render());
        }
        out.push_str(&format!(
            "\nmakespan {:.1}s   weighted {:.1}s   max stretch {:.2}   fairness {:.3}   reallocs {}{}\n",
            self.makespan_secs,
            self.weighted_makespan_secs,
            self.max_stretch,
            self.fairness_index,
            self.total_reallocs,
            if self.oversubscribed {
                "   [oversubscribed]"
            } else {
                ""
            },
        ));
        out
    }
}

/// Jain fairness index over inverse stretches: `(Σx)² / (n·Σx²)` with
/// `xᵢ = 1/stretchᵢ`. Equal slowdowns give `1.0`; one starved tenant among
/// `n` drives it toward `1/n`.
fn jain_index(tenants: &[TenantOutcome]) -> f64 {
    if tenants.is_empty() {
        return 1.0;
    }
    let xs: Vec<f64> = tenants
        .iter()
        .map(|t| {
            if t.stretch > 0.0 {
                1.0 / t.stretch
            } else {
                0.0
            }
        })
        .collect();
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(name: &str, stretch: f64) -> TenantOutcome {
        TenantOutcome {
            name: name.into(),
            id: 0,
            priority: 1.0,
            iterations: 2,
            allocation: "node0".into(),
            gpus: 8,
            est_step_secs: 1.0,
            solo_step_secs: 1.0,
            measured_step_secs: stretch,
            total_secs: 2.0 * stretch,
            stretch,
            queue_wait_secs: 0.0,
            steps_per_sec: 1.0 / stretch,
            reallocs: 0,
            faults_injected: 0,
            time_shared: false,
        }
    }

    #[test]
    fn jain_index_is_one_for_equal_stretch_and_drops_when_skewed() {
        let equal = vec![outcome("a", 2.0), outcome("b", 2.0)];
        assert!((jain_index(&equal) - 1.0).abs() < 1e-12);
        let skewed = vec![outcome("a", 1.0), outcome("b", 10.0)];
        let j = jain_index(&skewed);
        assert!(
            j < 1.0 && j > 0.5,
            "two tenants bound j in (1/2, 1), got {j}"
        );
    }

    #[test]
    fn empty_and_degenerate_inputs_do_not_divide_by_zero() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[outcome("a", 0.0)]), 1.0);
    }
}
