//! Run reports: per-call wall times (Table 6), category totals (Fig. 11),
//! and throughput.

use real_sim::{Category, Trace};
use real_util::Table;
use serde::{Deserialize, Serialize};

/// One call's measured interval in one iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallTiming {
    /// Call name (e.g. `"actor_gen"`).
    pub call_name: String,
    /// Iteration index.
    pub iter: usize,
    /// Dispatch-ready time.
    pub start: f64,
    /// Completion time.
    pub end: f64,
}

impl CallTiming {
    /// Wall duration of the call.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Why an execution attempt of a request was aborted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultAbort {
    /// The attempt's wall time exceeded its deadline (straggler / degraded
    /// link stretched it past `deadline_factor` x predicted cost).
    Timeout,
    /// A participating model worker crashed mid-attempt.
    Crash {
        /// Global index of the crashed GPU.
        gpu: u32,
    },
}

/// One aborted execution attempt, recorded for the report and the event
/// stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestFault {
    /// Name of the affected call (e.g. `"actor_train"`).
    pub call_name: String,
    /// Iteration index of the affected request.
    pub iter: usize,
    /// Zero-based attempt number that was aborted.
    pub attempt: u32,
    /// Why the attempt was aborted.
    pub kind: FaultAbort,
    /// Virtual time at which the attempt was abandoned.
    pub at: f64,
    /// Backoff wait before the next attempt became ready (seconds); the
    /// event stream renders this as a `backoff` span nested in the call.
    pub backoff_secs: f64,
}

/// Degraded-mode accounting: how much work a faulted run lost, retried, and
/// recovered. Empty (all zeros) for fault-free runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Fault events in the injected schedule (after compilation; events
    /// targeting GPUs or nodes outside the cluster are not counted).
    pub injected: usize,
    /// Total execution attempts dispatched (successful + aborted).
    pub dispatches: usize,
    /// Aborted attempts that were re-dispatched.
    pub retries: usize,
    /// Attempts aborted by deadline timeout.
    pub timeouts: usize,
    /// Attempts aborted by a worker crash.
    pub crashes: usize,
    /// Requests that needed at least one retry.
    pub requests_retried: usize,
    /// Requests that eventually completed after one or more retries.
    pub requests_recovered: usize,
    /// Requests that exhausted their retry budget and completed in
    /// degraded mode (run after the fault schedule went quiet, with
    /// deadline checks disabled).
    pub requests_degraded: usize,
    /// GPU-seconds occupied by aborted attempts (dead work).
    pub lost_gpu_seconds: f64,
    /// Virtual seconds spent in retry backoff.
    pub backoff_seconds: f64,
    /// Every aborted attempt, in dispatch order.
    pub events: Vec<RequestFault>,
}

impl FaultStats {
    /// Whether the run was fault-free (no schedule and no dispatch
    /// accounting — the engine skips fault bookkeeping entirely then).
    pub fn is_empty(&self) -> bool {
        self.injected == 0 && self.dispatches == 0
    }

    /// One-line summary for report rendering.
    pub fn render_line(&self) -> String {
        format!(
            "faults: {} injected | {} retries ({} timeout, {} crash) | \
             {} recovered, {} degraded | {:.1} GPU-s lost, {:.1} s backoff",
            self.injected,
            self.retries,
            self.timeouts,
            self.crashes,
            self.requests_recovered,
            self.requests_degraded,
            self.lost_gpu_seconds,
            self.backoff_seconds,
        )
    }
}

/// Async off-policy accounting (§4's graph-level freedom exploited at
/// runtime): how many generation calls ran against a stale parameter
/// snapshot, how stale they actually were, and how much generation and
/// training overlapped in wall time. Empty (all zeros) for synchronous
/// runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AsyncStats {
    /// The configured staleness bound `s`: generation for iteration `i`
    /// may start once training for iteration `i - 1 - s` has completed.
    pub staleness_bound: u32,
    /// Generation calls whose cross-iteration parameter edge was relaxed
    /// to the stale snapshot.
    pub relaxed_calls: usize,
    /// Maximum *observed* staleness across relaxed calls: the number of
    /// completed-but-not-yet-consumed training steps at generation
    /// dispatch. Always `<= staleness_bound`.
    pub max_observed_staleness: u32,
    /// Wall seconds during which at least one generation request and at
    /// least one training request were simultaneously *in flight*
    /// (dispatched and not yet completed). On disjoint meshes this is
    /// realized GPU overlap; on a shared mesh it counts queueing, so use
    /// the profiler's phase attribution for realized-overlap claims.
    pub gen_train_overlap_secs: f64,
}

impl AsyncStats {
    /// Whether the run was synchronous (no relaxed parameter edges).
    ///
    /// # Examples
    ///
    /// ```
    /// use real_runtime::AsyncStats;
    ///
    /// assert!(AsyncStats::default().is_empty());
    /// let stats = AsyncStats {
    ///     staleness_bound: 1,
    ///     relaxed_calls: 3,
    ///     max_observed_staleness: 0,
    ///     gen_train_overlap_secs: 11.46,
    /// };
    /// assert!(!stats.is_empty());
    /// assert!(stats.render_line().contains("staleness bound 1"));
    /// ```
    pub fn is_empty(&self) -> bool {
        self.relaxed_calls == 0
    }

    /// One-line summary for report rendering.
    pub fn render_line(&self) -> String {
        format!(
            "async: staleness bound {} | {} relaxed gen call(s) | \
             max observed staleness {} | {:.2} s gen/train overlap",
            self.staleness_bound,
            self.relaxed_calls,
            self.max_observed_staleness,
            self.gen_train_overlap_secs,
        )
    }
}

/// The output of a runtime-engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Iterations executed.
    pub iterations: usize,
    /// Virtual makespan of the whole run.
    pub total_time: f64,
    /// Steady-state seconds per iteration.
    pub iter_time: f64,
    /// Per-call, per-iteration timings.
    pub timings: Vec<CallTiming>,
    /// Cluster-wide busy seconds per category.
    pub category_totals: Vec<(Category, f64)>,
    /// Idle GPU-seconds up to the makespan.
    pub idle_total: f64,
    /// Peak memory bytes per GPU (max over GPUs).
    pub mem_peak: u64,
    /// Mean static-memory utilization (Fig. 17 right).
    pub static_utilization: f64,
    /// Kernel trace (empty unless enabled).
    pub trace: Trace,
    /// The master worker's request/response log (§6).
    pub master_log: crate::workers::MasterLog,
    /// Fault-injection accounting (empty for fault-free runs).
    pub faults: FaultStats,
    /// Elastic re-planning accounting (empty unless a re-plan policy was
    /// active and triggered).
    pub replan: crate::replan::ReplanStats,
    /// Async off-policy accounting (empty for synchronous runs).
    pub async_stats: AsyncStats,
}

impl RunReport {
    /// Mean wall duration of a call across iterations (all iterations; the
    /// engine runs on virtual time, so there is no warm-up distortion).
    pub fn call_mean(&self, call_name: &str) -> Option<f64> {
        let durs: Vec<f64> = self
            .timings
            .iter()
            .filter(|t| t.call_name == call_name)
            .map(CallTiming::duration)
            .collect();
        real_util::stats::mean(&durs)
    }

    /// Throughput in processed sequences per second, given the workflow's
    /// global batch per iteration.
    pub fn seqs_per_sec(&self, global_batch: u64) -> f64 {
        global_batch as f64 / self.iter_time
    }

    /// Throughput in tokens per second, given tokens per iteration.
    pub fn tokens_per_sec(&self, tokens_per_iter: u64) -> f64 {
        tokens_per_iter as f64 / self.iter_time
    }

    /// Mean GPU busy fraction over the run (1 - idle share).
    pub fn busy_fraction(&self, n_gpus: usize) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.category_totals.iter().map(|(_, s)| s).sum();
        busy / (self.total_time * n_gpus as f64)
    }

    /// Fraction of total busy time per category (Fig. 11's split).
    pub fn category_fractions(&self) -> Vec<(Category, f64)> {
        let busy: f64 = self.category_totals.iter().map(|(_, s)| s).sum();
        self.category_totals
            .iter()
            .map(|&(c, s)| (c, if busy > 0.0 { s / busy } else { 0.0 }))
            .collect()
    }

    /// Renders a Table 6-style wall-time breakdown.
    pub fn render_breakdown(&self) -> String {
        let mut names: Vec<&str> = Vec::new();
        for t in &self.timings {
            if !names.contains(&t.call_name.as_str()) {
                names.push(&t.call_name);
            }
        }
        let mut table = Table::new(vec!["call", "mean wall time (s)"]);
        for name in names {
            let mean = self.call_mean(name).unwrap_or(0.0);
            table.row(vec![name.to_string(), format!("{mean:.2}")]);
        }
        table.row(vec!["end2end".into(), format!("{:.2}", self.iter_time)]);
        let mut out = table.render();
        if self.trace.dropped() > 0 {
            out.push_str(&format!(
                "\nwarning: kernel trace dropped {} event(s) after filling its capacity; \
                 busy-time breakdowns are exact but the exported trace is truncated\n",
                self.trace.dropped()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_sim::KernelLabel;

    fn report() -> RunReport {
        RunReport {
            iterations: 2,
            total_time: 20.0,
            iter_time: 10.0,
            timings: vec![
                CallTiming {
                    call_name: "gen".into(),
                    iter: 0,
                    start: 0.0,
                    end: 6.0,
                },
                CallTiming {
                    call_name: "gen".into(),
                    iter: 1,
                    start: 10.0,
                    end: 14.0,
                },
                CallTiming {
                    call_name: "train".into(),
                    iter: 0,
                    start: 6.0,
                    end: 10.0,
                },
            ],
            category_totals: vec![(Category::Compute, 30.0), (Category::TpComm, 10.0)],
            idle_total: 5.0,
            mem_peak: 1 << 30,
            static_utilization: 0.4,
            trace: Trace::disabled(),
            master_log: crate::workers::MasterLog::default(),
            faults: FaultStats::default(),
            replan: crate::replan::ReplanStats::default(),
            async_stats: AsyncStats::default(),
        }
    }

    #[test]
    fn call_mean_averages_iterations() {
        let r = report();
        assert_eq!(r.call_mean("gen"), Some(5.0));
        assert_eq!(r.call_mean("train"), Some(4.0));
        assert_eq!(r.call_mean("missing"), None);
    }

    #[test]
    fn throughput_uses_iter_time() {
        let r = report();
        assert_eq!(r.seqs_per_sec(512), 51.2);
        assert_eq!(r.tokens_per_sec(1_000_000), 100_000.0);
    }

    #[test]
    fn busy_fraction_accounts_idle() {
        let r = report();
        // 40 busy GPU-seconds over 20s x 4 GPUs.
        assert_eq!(r.busy_fraction(4), 0.5);
    }

    #[test]
    fn category_fractions_sum_to_one() {
        let r = report();
        let sum: f64 = r.category_fractions().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_lists_calls_and_end2end() {
        let s = report().render_breakdown();
        assert!(s.contains("gen"));
        assert!(s.contains("train"));
        assert!(s.contains("end2end"));
        assert!(s.contains("10.00"));
        assert!(!s.contains("warning"));
    }

    #[test]
    fn fault_stats_emptiness_and_rendering() {
        let mut f = FaultStats::default();
        assert!(f.is_empty());
        f.injected = 3;
        f.retries = 2;
        f.timeouts = 1;
        f.crashes = 1;
        f.requests_recovered = 2;
        f.lost_gpu_seconds = 12.5;
        assert!(!f.is_empty());
        let line = f.render_line();
        assert!(line.contains("3 injected"), "{line}");
        assert!(line.contains("2 retries"), "{line}");
        assert!(line.contains("12.5 GPU-s lost"), "{line}");
        // Serde round-trip (the stats ride in serialized experiment dumps).
        let json = serde_json::to_string(&f).unwrap();
        let back: FaultStats = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn async_stats_emptiness_and_rendering() {
        let mut a = AsyncStats::default();
        assert!(a.is_empty());
        a.staleness_bound = 2;
        a.relaxed_calls = 7;
        a.max_observed_staleness = 1;
        a.gen_train_overlap_secs = 42.5;
        assert!(!a.is_empty());
        let line = a.render_line();
        assert!(line.contains("staleness bound 2"), "{line}");
        assert!(line.contains("7 relaxed"), "{line}");
        assert!(line.contains("42.50 s gen/train overlap"), "{line}");
        let json = serde_json::to_string(&a).unwrap();
        let back: AsyncStats = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn breakdown_warns_about_dropped_trace_events() {
        let mut r = report();
        let mut trace = Trace::with_capacity(1);
        for t in 0..3 {
            let t = f64::from(t);
            trace.record(0, t, t + 1.0, Category::Compute, KernelLabel::LayerFwd);
        }
        r.trace = trace;
        let s = r.render_breakdown();
        assert!(s.contains("warning"), "{s}");
        assert!(s.contains("dropped 2 event(s)"), "{s}");
    }
}
