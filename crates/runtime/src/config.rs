//! Runtime engine configuration.

use real_dataflow::{CallHook, ExecutionPlan};
use real_estimator::Estimator;
use real_sim::FaultPlan;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Knobs of the runtime engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Capture decoding in CUDA graphs (Table 6's with/without rows; the
    /// paper applies graphs to generation only).
    pub cuda_graph: bool,
    /// Log-normal sigma applied per simulated kernel/collective.
    pub jitter_sigma: f64,
    /// RNG seed for the jitter stream.
    pub seed: u64,
    /// Master-worker request dispatch latency (socket RPC + queueing), per
    /// function-call dispatch.
    pub rpc_latency: f64,
    /// Decode steps aggregated per simulated event (trades trace resolution
    /// for speed; results are duration-equivalent).
    pub decode_chunk: u64,
    /// Host-side per-decode-step overhead of an un-captured decoding loop
    /// (Python dispatch + distributed synchronization). Charged only when
    /// `cuda_graph` is off; graph capture replays the whole step on-device.
    pub host_decode_overhead: f64,
    /// Coefficient of variation of realized generation lengths across DP
    /// replicas. Zero reproduces the paper's fixed-length protocol
    /// (Appendix A); positive values model the §7 limitation — a dynamic
    /// workload whose skew the estimator cannot predict.
    pub gen_len_cv: f64,
    /// Kernel-trace capacity (0 disables tracing).
    pub trace_capacity: usize,
    /// Models executed in ZeRO-3 data-parallel mode (DeepSpeed-Chat
    /// emulation): per-layer weight all-gathers and reduce-scatters, static
    /// state sharded over the world.
    pub zero3_models: HashSet<String>,
    /// Models trained with Megatron's distributed optimizer (ZeRO-1):
    /// Adam state sharded over DP (NeMo-Aligner's backend).
    pub dist_optim_models: HashSet<String>,
    /// Skip the pre-run memory check (for experiments that *want* to
    /// observe the OOM as a failed run marker, not an error).
    pub skip_mem_check: bool,
    /// Deterministic fault schedule injected into the run (stragglers,
    /// worker crashes, link degradation). `None` leaves the engine on the
    /// exact fault-free code path, byte-identical to a build without the
    /// fault subsystem.
    pub fault_plan: Option<FaultPlan>,
    /// A request times out when its wall time exceeds `deadline_factor`
    /// times its predicted cost (the estimator's prediction when available,
    /// else the fault-free simulated duration). `<= 0` disables timeouts.
    pub deadline_factor: f64,
    /// Maximum re-dispatch attempts per request after the first; once
    /// exhausted, the request runs in degraded mode (after the fault
    /// schedule's last crash) so the run always completes.
    pub max_retries: u32,
    /// Base of the bounded exponential backoff between retries (seconds).
    pub backoff_base: f64,
    /// Upper bound on a single backoff interval (seconds).
    pub backoff_cap: f64,
    /// Estimator-predicted wall seconds per call name, used to derive
    /// request deadlines. Filled from the §5 cost estimator by
    /// [`Self::predict_deadlines`]; unknown calls fall back to the
    /// fault-free simulation.
    pub predicted_secs: Vec<(String, f64)>,
    /// Per-call user hooks from the `graph.json` DSL: fixed pre/post wall
    /// seconds charged around the named call on its mesh (data loading,
    /// reward post-processing, checkpoint upload). Empty leaves the engine
    /// byte-identical to a build without the hook subsystem.
    pub call_hooks: Vec<CallHook>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            cuda_graph: true,
            jitter_sigma: 0.02,
            seed: 1,
            rpc_latency: 300e-6,
            decode_chunk: 32,
            host_decode_overhead: 6e-3,
            gen_len_cv: 0.0,
            trace_capacity: 0,
            zero3_models: HashSet::new(),
            dist_optim_models: HashSet::new(),
            skip_mem_check: false,
            fault_plan: None,
            deadline_factor: 3.0,
            max_retries: 3,
            backoff_base: 0.5,
            backoff_cap: 8.0,
            predicted_secs: Vec::new(),
            call_hooks: Vec::new(),
        }
    }
}

impl EngineConfig {
    /// A configuration with deterministic (jitter-free) kernels, useful in
    /// tests asserting exact relationships.
    pub fn deterministic() -> Self {
        Self {
            jitter_sigma: 0.0,
            ..Self::default()
        }
    }

    /// Returns a copy with CUDA graphs toggled.
    pub fn with_cuda_graph(mut self, on: bool) -> Self {
        self.cuda_graph = on;
        self
    }

    /// Returns a copy with tracing enabled at the given capacity.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Returns a copy marking `model` as ZeRO-3 executed.
    pub fn with_zero3(mut self, model: impl Into<String>) -> Self {
        self.zero3_models.insert(model.into());
        self
    }

    /// Returns a copy with a fault schedule injected.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Returns a copy with per-call hooks installed.
    pub fn with_call_hooks(mut self, hooks: Vec<CallHook>) -> Self {
        self.call_hooks = hooks;
        self
    }

    /// Whether resilient dispatch still lacks the estimator's per-call
    /// predictions: a fault plan is injected and no predictions were
    /// supplied.
    pub fn lacks_deadlines(&self) -> bool {
        self.fault_plan.is_some() && self.predicted_secs.is_empty()
    }

    /// Fills [`Self::predicted_secs`] with `est`'s duration of every call
    /// on its `plan` assignment when [`Self::lacks_deadlines`], so request
    /// deadlines follow the planner's expectations rather than only the
    /// nominal simulation. `Experiment::run` and the serving loop's
    /// admission both fill deadlines here.
    pub fn predict_deadlines(&mut self, est: &Estimator, plan: &ExecutionPlan) {
        if self.lacks_deadlines() {
            self.predicted_secs = est
                .graph()
                .iter()
                .map(|(id, def)| {
                    let secs = est.call_duration(id, plan.assignment(id));
                    (def.call_name.clone(), secs)
                })
                .collect();
        }
    }

    /// Total (pre, post) hook seconds registered for `call_name`. Multiple
    /// hooks on the same call accumulate.
    ///
    /// # Examples
    ///
    /// ```
    /// use real_dataflow::CallHook;
    /// use real_runtime::EngineConfig;
    ///
    /// let cfg = EngineConfig::default().with_call_hooks(vec![CallHook {
    ///     call: "reward_inf".to_string(),
    ///     pre_secs: 0.0,
    ///     post_secs: 0.25,
    /// }]);
    /// assert_eq!(cfg.hook_secs("reward_inf"), (0.0, 0.25));
    /// assert_eq!(cfg.hook_secs("actor_gen"), (0.0, 0.0));
    /// ```
    pub fn hook_secs(&self, call_name: &str) -> (f64, f64) {
        let mut pre = 0.0;
        let mut post = 0.0;
        for h in &self.call_hooks {
            if h.call == call_name {
                pre += h.pre_secs;
                post += h.post_secs;
            }
        }
        (pre, post)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_graphed_and_jittered() {
        let c = EngineConfig::default();
        assert!(c.cuda_graph);
        assert!(c.jitter_sigma > 0.0);
        assert!(c.zero3_models.is_empty());
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::deterministic()
            .with_cuda_graph(false)
            .with_trace(128)
            .with_zero3("actor");
        assert_eq!(c.jitter_sigma, 0.0);
        assert!(!c.cuda_graph);
        assert_eq!(c.trace_capacity, 128);
        assert!(c.zero3_models.contains("actor"));
    }

    #[test]
    fn hooks_accumulate_per_call() {
        let c = EngineConfig::deterministic().with_call_hooks(vec![
            CallHook {
                call: "actor_gen".into(),
                pre_secs: 0.5,
                post_secs: 0.25,
            },
            CallHook {
                call: "actor_gen".into(),
                pre_secs: 0.5,
                post_secs: 0.0,
            },
            CallHook {
                call: "rew_inf".into(),
                pre_secs: 0.0,
                post_secs: 1.0,
            },
        ]);
        assert_eq!(c.hook_secs("actor_gen"), (1.0, 0.25));
        assert_eq!(c.hook_secs("rew_inf"), (0.0, 1.0));
        assert_eq!(c.hook_secs("other"), (0.0, 0.0));
    }
}
