//! A per-process plan cache: the searched/heuristic plans of a setting are
//! reused across figures (profiling statistics are likewise reusable
//! across experiments within a model family, §8.2).

use crate::settings::{ppo_experiment, Setting};
use real_core::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

/// Cached planning artifacts for one setting.
#[derive(Debug, Clone)]
pub struct PlannedSetting {
    /// The MCMC-searched plan.
    pub searched: ExecutionPlan,
    /// The symmetric REAL-Heuristic plan.
    pub heuristic: ExecutionPlan,
    /// Search statistics.
    pub search: SearchResult,
    /// Simulated profiling seconds.
    pub profiling_secs: f64,
}

/// Cache keyed by setting name.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: HashMap<String, PlannedSetting>,
    /// Search wall-clock budget per setting.
    pub search_budget: Duration,
    /// Search step budget per setting.
    pub search_steps: u64,
}

impl PlanCache {
    /// Creates a cache with the default per-setting search budget.
    pub fn new() -> Self {
        Self {
            entries: HashMap::new(),
            search_budget: Duration::from_secs(45),
            search_steps: 40_000,
        }
    }

    /// The search configuration the cache uses.
    pub fn mcmc_config(&self) -> McmcConfig {
        McmcConfig {
            max_steps: self.search_steps,
            time_limit: self.search_budget,
            ..McmcConfig::default()
        }
    }

    /// Plans (or returns the cached plans for) a setting.
    ///
    /// # Panics
    ///
    /// Panics if the search cannot find a feasible plan — every paper
    /// setting is feasible, so that indicates a harness bug.
    pub fn plan(&mut self, s: &Setting) -> &PlannedSetting {
        let cfg = self.mcmc_config();
        self.entries.entry(s.name.clone()).or_insert_with(|| {
            let exp = ppo_experiment(s);
            let chains = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8);
            let planned = exp
                .plan_search(&cfg, chains, chains, &SpecMenu::empty())
                .unwrap_or_else(|e| panic!("no feasible plan for {}: {e}", s.name));
            let heuristic = exp
                .plan_heuristic()
                .unwrap_or_else(|e| panic!("no heuristic plan for {}: {e}", s.name));
            PlannedSetting {
                searched: planned.plan,
                heuristic,
                search: planned.search.base,
                profiling_secs: planned.profiling_secs,
            }
        })
    }

    /// Runs a plan under a setting's PPO experiment, returning the report
    /// (or `None` on OOM).
    pub fn run(
        &self,
        s: &Setting,
        plan: &ExecutionPlan,
        engine: EngineConfig,
        iterations: usize,
    ) -> Option<ExperimentReport> {
        let exp = ppo_experiment(s).with_engine_config(engine);
        exp.run(plan, iterations).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::Setting;
    use real_core::real_model::ModelSpec;

    #[test]
    fn cache_reuses_entries() {
        let mut cache = PlanCache::new();
        cache.search_steps = 400;
        cache.search_budget = Duration::from_secs(10);
        let s = Setting::new(1, ModelSpec::llama3_7b(), 64);
        let first = cache.plan(&s).searched.clone();
        let second = cache.plan(&s).searched.clone();
        assert_eq!(first, second);
        assert_eq!(cache.entries.len(), 1);
    }
}
