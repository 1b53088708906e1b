//! Tenant API for multi-tenant scheduling.
//!
//! A [`Tenant`] wraps an [`Experiment`] with the identity and service
//! parameters the `real-sched` scheduler needs: a stable id (seeds the
//! tenant's RNG substream — independent of list position, so admitting or
//! removing a co-tenant never shifts another tenant's stream), a priority
//! weight for the priority-weighted-makespan objective, and the number of
//! RLHF iterations the tenant wants to run.

use crate::experiment::Experiment;

/// One tenant workload: an experiment plus scheduling identity/weights.
#[derive(Debug, Clone)]
pub struct Tenant {
    name: String,
    id: u64,
    priority: f64,
    iterations: usize,
    experiment: Experiment,
}

impl Tenant {
    /// Wraps `experiment` as a tenant. Priority defaults to `1.0` and
    /// iterations to `2`.
    pub fn new(name: impl Into<String>, id: u64, experiment: Experiment) -> Self {
        Self {
            name: name.into(),
            id,
            priority: 1.0,
            iterations: 2,
            experiment,
        }
    }

    /// Sets the priority weight (clamped to be positive). Higher-priority
    /// tenants weigh more in the scheduler's objective, so they get the
    /// larger / better-placed allocations when capacity is contended.
    pub fn with_priority(mut self, priority: f64) -> Self {
        self.priority = priority.max(f64::MIN_POSITIVE);
        self
    }

    /// Sets the number of RLHF iterations to run (at least 1).
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations.max(1);
        self
    }

    /// Replaces the wrapped experiment, keeping the tenant's identity,
    /// priority and iterations.
    pub fn with_experiment(mut self, experiment: Experiment) -> Self {
        self.experiment = experiment;
        self
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stable identity; seeds the tenant's RNG substream.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Priority weight.
    pub fn priority(&self) -> f64 {
        self.priority
    }

    /// RLHF iterations to run.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The wrapped experiment.
    pub fn experiment(&self) -> &Experiment {
        &self.experiment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::ClusterSpec;
    use real_dataflow::algo::RlhfConfig;
    use real_model::ModelSpec;

    fn experiment() -> Experiment {
        Experiment::dpo(
            ClusterSpec::h100(1),
            ModelSpec::llama3_7b(),
            RlhfConfig::instruct_gpt(32),
        )
    }

    #[test]
    fn builders_clamp_and_accessors_expose() {
        let t = Tenant::new("prod", 3, experiment())
            .with_priority(-1.0)
            .with_iterations(0);
        assert_eq!(t.name(), "prod");
        assert_eq!(t.id(), 3);
        assert!(t.priority() > 0.0);
        assert_eq!(t.iterations(), 1);
        assert!(t.experiment().graph().n_calls() > 0);
    }

    #[test]
    fn defaults_are_neutral() {
        let t = Tenant::new("dev", 0, experiment());
        assert_eq!(t.priority(), 1.0);
        assert_eq!(t.iterations(), 2);
    }
}
