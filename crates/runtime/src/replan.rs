//! Elastic re-planning policy: when and whether to switch execution plans
//! mid-run (the ROADMAP's "elastic re-planning policies" item).
//!
//! PR 2's resilient dispatch reacts to faults *per request* (deadline →
//! retry → degraded); this module adds the *policy* layer that reacts per
//! cluster: trigger rules over live [`crate::FaultStats`] decide when a
//! re-search is worth evaluating, a warm-started MCMC chain
//! (`real_search::search_warm`) searches the surviving meshes, and a
//! cost/benefit gate (via `real_search::explain::compare`) decides whether
//! the projected saving over the remaining iterations pays for the switch's
//! reallocation traffic. The switch itself reuses the parameter-reallocation
//! broadcast machinery (§4 of the paper — what makes switching cheap) under
//! snapshot-rollback, so a switch that itself faults leaves the run exactly
//! where it was.

use real_search::PruneLevel;
use serde::{Deserialize, Serialize};

/// When and whether the engine re-plans mid-run. Built fluently; the
/// defaults are conservative enough that transient faults never trigger a
/// search.
///
/// # Examples
///
/// ```
/// use real_runtime::ReplanPolicy;
///
/// let policy = ReplanPolicy::new()
///     .with_dead_after(60.0)        // worker unreachable 60 s => dead
///     .with_straggler_requests(2)   // 2 timeouts in an iteration => straggler
///     .with_min_speedup(1.10)       // new plan must be >= 10% faster
///     .with_search_steps(1_500)
///     .with_max_replans(2);
/// assert_eq!(policy.dead_after_secs, 60.0);
/// assert_eq!(policy.straggler_requests, 2);
/// assert!(policy.min_speedup > 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanPolicy {
    /// A worker whose next availability is at least this many seconds away
    /// is considered dead: the pending request re-plans instead of waiting
    /// out the downtime.
    pub dead_after_secs: f64,
    /// Trigger a re-plan evaluation when an iteration accumulates at least
    /// this many deadline timeouts (a persistent straggler).
    pub straggler_requests: u64,
    /// Trigger when the fraction of requests completing in degraded mode
    /// over an iteration reaches this threshold.
    pub degraded_rate_threshold: f64,
    /// The candidate plan's estimated (degraded-cluster) per-iteration time
    /// must beat the incumbent's by at least this factor.
    pub min_speedup: f64,
    /// The projected saving over the remaining iterations must exceed this
    /// multiple of the switch's measured reallocation cost.
    pub min_benefit_ratio: f64,
    /// Hard cap on committed switches per run.
    pub max_replans: u64,
    /// Step budget of each warm-started re-search chain.
    pub search_steps: u64,
    /// MCMC temperature of the re-search.
    pub beta: f64,
    /// Pruning level for the degraded search space.
    pub prune: PruneLevel,
    /// How far past the trigger instant slowdown windows are scanned when
    /// tagging straggler GPUs for the degraded estimator.
    pub slowdown_lookahead: f64,
    /// Estimator penalty factor for meshes containing a dead GPU (see
    /// [`real_cluster::ClusterHealth`]).
    pub dead_penalty: f64,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        Self {
            dead_after_secs: 120.0,
            straggler_requests: 3,
            degraded_rate_threshold: 0.25,
            min_speedup: 1.05,
            min_benefit_ratio: 2.0,
            max_replans: 4,
            search_steps: 2_000,
            beta: 6.0,
            prune: PruneLevel::Aggressive,
            slowdown_lookahead: 600.0,
            dead_penalty: real_cluster::health::DEAD_PENALTY,
        }
    }
}

impl ReplanPolicy {
    /// The default policy (see field docs for the values).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the dead-worker patience window, seconds.
    pub fn with_dead_after(mut self, secs: f64) -> Self {
        self.dead_after_secs = secs.max(0.0);
        self
    }

    /// Sets the per-iteration timeout count that flags a straggler.
    pub fn with_straggler_requests(mut self, requests: u64) -> Self {
        self.straggler_requests = requests.max(1);
        self
    }

    /// Sets the per-iteration degraded-completion rate threshold.
    pub fn with_degraded_rate(mut self, rate: f64) -> Self {
        self.degraded_rate_threshold = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the minimum estimated speedup a candidate must offer.
    pub fn with_min_speedup(mut self, speedup: f64) -> Self {
        self.min_speedup = speedup.max(1.0);
        self
    }

    /// Sets the benefit-to-switch-cost ratio the gate requires.
    pub fn with_min_benefit_ratio(mut self, ratio: f64) -> Self {
        self.min_benefit_ratio = ratio.max(0.0);
        self
    }

    /// Caps the number of committed switches per run.
    pub fn with_max_replans(mut self, n: u64) -> Self {
        self.max_replans = n;
        self
    }

    /// Sets the warm re-search's MCMC step budget.
    pub fn with_search_steps(mut self, steps: u64) -> Self {
        self.search_steps = steps.max(1);
        self
    }

    /// Sets the warm re-search's MCMC temperature.
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the pruning level of the degraded search space.
    pub fn with_prune(mut self, prune: PruneLevel) -> Self {
        self.prune = prune;
        self
    }

    /// Sets the slowdown look-ahead horizon, seconds.
    pub fn with_slowdown_lookahead(mut self, secs: f64) -> Self {
        self.slowdown_lookahead = secs.max(0.0);
        self
    }

    /// Sets the dead-mesh estimator penalty.
    pub fn with_dead_penalty(mut self, factor: f64) -> Self {
        self.dead_penalty = factor.max(1.0);
        self
    }
}

/// Why a re-plan evaluation was triggered.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ReplanReason {
    /// A request's participants were unreachable past the policy's
    /// patience window.
    DeadWorker {
        /// The first dead GPU detected.
        gpu: u32,
    },
    /// Deadline timeouts accumulated past the straggler threshold.
    Straggler {
        /// Timeouts observed in the triggering iteration.
        timeouts: u64,
    },
    /// Too many requests completed in degraded mode.
    DegradedRate {
        /// Degraded completions / dispatched requests in the iteration.
        rate: f64,
    },
    /// The serving loop offered this elastic tenant freed GPUs (a co-tenant
    /// finished) that grow its lease into a larger §4 mesh.
    FreedCapacity {
        /// Number of GPUs offered.
        gpus: u32,
    },
}

/// What a re-plan evaluation decided.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplanOutcome {
    /// The switch committed: the run continues on the new plan.
    Switched {
        /// Estimated per-iteration time of the incumbent on the degraded
        /// cluster.
        base_time: f64,
        /// Estimated per-iteration time of the new plan.
        target_time: f64,
        /// Measured wall seconds of the switch's reallocation prologue.
        switch_secs: f64,
        /// Number of calls whose assignment changed.
        n_diffs: usize,
    },
    /// The cost/benefit gate rejected the candidate; the run stays on the
    /// incumbent plan.
    GateRejected {
        /// Estimated per-iteration time of the incumbent.
        base_time: f64,
        /// Estimated per-iteration time of the rejected candidate.
        target_time: f64,
        /// Measured switch cost that failed to amortize.
        switch_secs: f64,
    },
    /// The switch's reallocation prologue was hit by a crash and was rolled
    /// back.
    SwitchFaulted {
        /// The crashing GPU.
        gpu: u32,
        /// Crash instant.
        at: f64,
    },
    /// No surviving mesh set admits the workload (or the candidate failed
    /// the memory check).
    NoSurvivingPlan,
}

/// One re-plan decision, in trigger order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplanEvent {
    /// Virtual time of the decision.
    pub at: f64,
    /// Iteration during which it fired.
    pub iter: usize,
    /// Trigger.
    pub reason: ReplanReason,
    /// Decision.
    pub outcome: ReplanOutcome,
}

/// Re-planning accounting carried on [`crate::RunReport`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReplanStats {
    /// Re-plan evaluations triggered (searches run).
    pub evaluations: u64,
    /// Switches committed.
    pub switches: u64,
    /// Candidates rejected by the cost/benefit gate.
    pub gate_rejections: u64,
    /// Switches rolled back because the prologue itself faulted.
    pub aborted_switches: u64,
    /// Evaluations that found no feasible plan on the surviving meshes.
    pub no_plan: u64,
    /// Total wall seconds of committed switch prologues.
    pub switch_seconds: f64,
    /// Decision log in trigger order.
    pub events: Vec<ReplanEvent>,
}

impl ReplanStats {
    /// Whether re-planning never engaged (no evaluation fired). Reports of
    /// replan-disabled runs stay empty so their observability surface is
    /// byte-identical to earlier builds.
    pub fn is_empty(&self) -> bool {
        self.evaluations == 0 && self.events.is_empty()
    }

    /// One-line summary for run breakdowns.
    pub fn render_line(&self) -> String {
        format!(
            "replan: {} evaluated | {} switched, {} gate-rejected, {} aborted, {} no-plan | {:.1} s switching",
            self.evaluations,
            self.switches,
            self.gate_rejections,
            self.aborted_switches,
            self.no_plan,
            self.switch_seconds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_clamps_and_sets() {
        let p = ReplanPolicy::new()
            .with_dead_after(-5.0)
            .with_straggler_requests(0)
            .with_degraded_rate(2.0)
            .with_min_speedup(0.5)
            .with_min_benefit_ratio(-1.0)
            .with_max_replans(9)
            .with_search_steps(0)
            .with_beta(3.0)
            .with_prune(PruneLevel::Moderate)
            .with_slowdown_lookahead(-1.0)
            .with_dead_penalty(0.0);
        assert_eq!(p.dead_after_secs, 0.0);
        assert_eq!(p.straggler_requests, 1);
        assert_eq!(p.degraded_rate_threshold, 1.0);
        assert_eq!(p.min_speedup, 1.0);
        assert_eq!(p.min_benefit_ratio, 0.0);
        assert_eq!(p.max_replans, 9);
        assert_eq!(p.search_steps, 1);
        assert_eq!(p.beta, 3.0);
        assert_eq!(p.prune, PruneLevel::Moderate);
        assert_eq!(p.slowdown_lookahead, 0.0);
        assert_eq!(p.dead_penalty, 1.0);
    }

    #[test]
    fn stats_emptiness_and_rendering() {
        let mut s = ReplanStats::default();
        assert!(s.is_empty());
        s.evaluations = 1;
        s.switches = 1;
        s.switch_seconds = 2.5;
        assert!(!s.is_empty());
        let line = s.render_line();
        assert!(line.contains("1 evaluated"));
        assert!(line.contains("1 switched"));
        assert!(line.contains("2.5 s switching"));
    }

    #[test]
    fn stats_round_trip_through_serde() {
        let s = ReplanStats {
            evaluations: 2,
            switches: 1,
            gate_rejections: 1,
            aborted_switches: 0,
            no_plan: 0,
            switch_seconds: 1.25,
            events: vec![ReplanEvent {
                at: 10.0,
                iter: 0,
                reason: ReplanReason::DeadWorker { gpu: 3 },
                outcome: ReplanOutcome::Switched {
                    base_time: 100.0,
                    target_time: 40.0,
                    switch_secs: 1.25,
                    n_diffs: 6,
                },
            }],
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: ReplanStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
