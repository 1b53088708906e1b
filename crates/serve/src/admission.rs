//! Admission-time feasibility pricing and the preemption cost/benefit gate.
//!
//! Serving cannot afford a full scheduler pass per arrival: with thousands
//! of arrivals over a day-long horizon, admission must be near-free. The
//! trick is that arrivals are *templates* — every `prod-17` prices exactly
//! like every other `prod-*` — so the serving loop prices each template
//! **once** ([`price_template`]): for every §4 candidate mesh, a canonical
//! feasibility probe ([`real_estimator::probe::fit_plan`]) answers "does
//! the template fit here at all", and a short warm-started MCMC chain
//! ([`real_search::search_within`]) refines it into a plan priced once, by
//! the search itself (the same per-(tenant, mesh) candidate probe as
//! `real-sched`'s allocation search, sharing one `CostMemo` across the
//! template's meshes). Each arrival then probes the resulting
//! [`TemplatePrices`] table against the live free-GPU overlay in
//! O(candidates).
//!
//! The admission verdict is an [`AdmissionDecision`]; the preemption
//! decision generalizes the re-plan gate's measured cost/benefit rule to
//! "is the preemption worth two prologues" ([`preemption_gate`]).

use real_cluster::DeviceMesh;
use real_dataflow::ExecutionPlan;
use real_estimator::{probe, CostMemo, Estimator};
use real_search::{search_within, McmcConfig, PruneLevel};
use real_util::DeterministicRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::time::Duration;

/// The admission verdict for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// Capacity was available (possibly via preemption): the tenant started
    /// service immediately.
    Admitted,
    /// No capacity now, but the projected stretch (queue wait included)
    /// stays within the bound: the tenant waits in the priority queue.
    Queued,
    /// The arrival was turned away.
    Rejected {
        /// Why it was turned away.
        reason: RejectReason,
    },
}

/// Why an arrival was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The template fits no candidate mesh of this cluster at all (out of
    /// device memory on every mesh).
    Infeasible,
    /// Projected stretch — (queue wait + service) over solo service —
    /// exceeds the `max_stretch` bound.
    StretchBound,
}

/// One priced placement candidate for a template.
#[derive(Debug, Clone)]
pub struct TemplateCandidate {
    /// The candidate allocation.
    pub mesh: DeviceMesh,
    /// The priced execution plan, confined to the mesh.
    pub plan: ExecutionPlan,
    /// Estimated per-iteration step seconds on the mesh.
    pub step_secs: f64,
}

/// The admission price table of one template: every feasible candidate
/// mesh with a plan and step estimate, fastest first.
#[derive(Debug, Clone)]
pub struct TemplatePrices {
    /// Feasible candidates, sorted by `step_secs` (ties: mesh coordinates).
    pub candidates: Vec<TemplateCandidate>,
    /// Estimated step seconds running alone on the full cluster (the
    /// stretch denominator).
    pub solo_step_secs: f64,
    /// Estimated cost of one reallocation prologue: moving every model of
    /// the template's graph to a fresh layout, priced as one inter-node
    /// parameter broadcast per distinct model (bf16).
    pub prologue_secs: f64,
}

impl TemplatePrices {
    /// The fastest candidate whose mesh is wholly free under the per-GPU
    /// occupancy overlay (`free[g]` true ⇔ `GpuId(g)` unleased), or `None`
    /// when nothing fits right now.
    pub fn fit_on<'a>(&'a self, free: &[bool]) -> Option<&'a TemplateCandidate> {
        self.candidates
            .iter()
            .find(|c| c.mesh.gpus().all(|g| free[g.0 as usize]))
    }

    /// The template's best-case step seconds (fastest candidate).
    pub fn best_step_secs(&self) -> f64 {
        self.candidates[0].step_secs
    }
}

/// Prices `template` on every §4 candidate mesh of the estimator's cluster:
/// canonical-probe pre-filter, then a `probe_steps`-bounded warm-started
/// MCMC chain per mesh, keeping memory-feasible contained plans only.
/// Returns `None` when no mesh fits — arrivals of this template are
/// rejected as [`RejectReason::Infeasible`].
///
/// Seeded by `(seed, template, mesh)` so a template's prices are
/// independent of co-template membership and of arrival order; `memo` is
/// shared across the template's meshes (and across re-pricing calls).
pub fn price_template(
    est: &Estimator,
    template: u64,
    seed: u64,
    probe_steps: u64,
    memo: &mut CostMemo,
) -> Option<TemplatePrices> {
    let cluster = est.cluster();
    let graph = est.graph();
    let all_meshes = DeviceMesh::enumerate(cluster);
    let full = DeviceMesh::full(cluster);
    let mut candidates = Vec::new();
    for (mesh_index, mesh) in all_meshes.iter().enumerate() {
        // Canonical feasibility probe: no strategy fits ⇒ skip the search.
        let Some(canonical) = probe::fit_plan(est, mesh) else {
            continue;
        };
        let mut rng = DeterministicRng::from_seed(seed)
            .derive("serve")
            .derive("price")
            .derive_index(template)
            .derive_index(mesh_index as u64);
        let cfg = McmcConfig {
            beta: 6.0,
            max_steps: probe_steps,
            // Step-bounded only: a wall-clock cutoff would make admission
            // depend on machine load and break replay.
            time_limit: Duration::from_secs(86_400),
            seed: rng.next_u64(),
            record_trace: false,
        };
        let prune = PruneLevel::Aggressive;
        if let Some(r) = search_within(est, mesh, prune, &cfg, Some(&canonical), memo) {
            candidates.push(TemplateCandidate {
                mesh: *mesh,
                plan: r.best_plan,
                step_secs: r.best_time_cost,
            });
        }
    }
    if candidates.is_empty() {
        return None;
    }
    candidates.sort_by(|a, b| {
        a.step_secs
            .partial_cmp(&b.step_secs)
            .expect("step times are finite")
            .then_with(|| a.mesh.cmp(&b.mesh))
    });
    let solo_step_secs = candidates
        .iter()
        .find(|c| c.mesh == full)
        .map(|c| c.step_secs)
        .unwrap_or(candidates[0].step_secs);

    // Prologue estimate: one inter-node broadcast of each distinct model's
    // bf16 parameters — the Fig. 6 reallocation a preempted tenant pays to
    // move off and back onto a mesh.
    let comm = est.comm();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut prologue_secs = 0.0;
    for call in graph.calls() {
        if seen.insert(call.model.name.as_str()) {
            let bytes = call.model.param_count() as f64 * 2.0;
            prologue_secs += comm.broadcast(bytes, 2, false);
        }
    }
    Some(TemplatePrices {
        candidates,
        solo_step_secs,
        prologue_secs,
    })
}

/// The generalized re-plan gate for checkpointed preemption: suspend a
/// running victim (priority `p_v`, `victim_remaining_secs` of estimated
/// service left) to admit a waiting arrival (priority `p_h`, estimated
/// service `arrival_service_secs` on the freed capacity) iff
///
/// ```text
/// p_h · W_v  >  p_v · S_h  +  γ · 2 · C_prologue
/// ```
///
/// — the priority-weighted wait the arrival avoids (it would otherwise sit
/// behind the victim's remaining work `W_v`) must exceed the
/// priority-weighted delay inflicted on the victim (`S_h`, which now runs
/// ahead of it) plus the reallocation overhead: *two* prologues (the victim
/// moves off and later back on), scaled by the `min_benefit_ratio` γ. With
/// γ = 0 this degrades to pure weighted-priority preemption; large γ
/// preempts only when the avoided wait dwarfs the switch cost — exactly the
/// role `min_benefit_ratio` plays in the runtime's re-plan gate.
pub fn preemption_gate(
    p_high: f64,
    victim_remaining_secs: f64,
    p_victim: f64,
    arrival_service_secs: f64,
    prologue_secs: f64,
    gamma: f64,
) -> bool {
    p_high * victim_remaining_secs > p_victim * arrival_service_secs + gamma * 2.0 * prologue_secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::ClusterSpec;
    use real_core::Experiment;
    use real_dataflow::algo::RlhfConfig;
    use real_model::ModelSpec;

    fn estimator(nodes: u32, batch: u64) -> Estimator {
        Experiment::dpo(
            ClusterSpec::h100(nodes),
            ModelSpec::llama3_7b(),
            RlhfConfig::instruct_gpt(batch),
        )
        .with_quick_profile()
        .prepare()
        .0
    }

    #[test]
    fn pricing_is_deterministic_and_sorted() {
        let est = estimator(2, 32);
        let mut memo = CostMemo::new();
        let a = price_template(&est, 0, 7, 150, &mut memo).unwrap();
        let b = price_template(&est, 0, 7, 150, &mut CostMemo::new()).unwrap();
        assert_eq!(a.candidates.len(), b.candidates.len());
        for (x, y) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(x.mesh, y.mesh);
            assert_eq!(x.step_secs.to_bits(), y.step_secs.to_bits());
            assert_eq!(x.plan, y.plan);
        }
        assert!(a
            .candidates
            .windows(2)
            .all(|w| w[0].step_secs <= w[1].step_secs));
        assert!(a.solo_step_secs > 0.0);
        assert!(a.prologue_secs > 0.0);
        // Re-pricing with the shared memo hits the cache.
        let _ = price_template(&est, 0, 7, 150, &mut memo).unwrap();
        assert!(memo.stats().hits > 0);
    }

    #[test]
    fn fit_on_respects_the_free_overlay() {
        let est = estimator(2, 32);
        let prices = price_template(&est, 0, 7, 150, &mut CostMemo::new()).unwrap();
        let all_free = vec![true; 16];
        assert!(prices.fit_on(&all_free).is_some());
        // Lease node 0 out: the fit must move wholly onto node 1.
        let mut half = vec![true; 16];
        for slot in half.iter_mut().take(8) {
            *slot = false;
        }
        if let Some(c) = prices.fit_on(&half) {
            assert!(c.mesh.gpus().all(|g| g.0 >= 8));
        }
        assert!(prices.fit_on(&[false; 16]).is_none());
    }

    #[test]
    fn gate_prefers_high_priority_over_long_victims() {
        // 10x-priority arrival vs a victim with lots of work left: preempt.
        assert!(preemption_gate(10.0, 1000.0, 0.5, 100.0, 10.0, 1.0));
        // Equal priorities: never worth paying two prologues.
        assert!(!preemption_gate(1.0, 100.0, 1.0, 100.0, 10.0, 1.0));
        // Victim nearly done: not worth it even for a high-priority burst.
        assert!(!preemption_gate(10.0, 1.0, 0.5, 100.0, 10.0, 1.0));
        // γ scales the prologue term: with γ=0 the borderline case flips.
        assert!(!preemption_gate(2.0, 60.0, 1.0, 100.0, 15.0, 1.0));
        assert!(preemption_gate(2.0, 60.0, 1.0, 100.0, 15.0, 0.0));
    }

    #[test]
    fn decisions_round_trip_through_serde() {
        for d in [
            AdmissionDecision::Admitted,
            AdmissionDecision::Queued,
            AdmissionDecision::Rejected {
                reason: RejectReason::Infeasible,
            },
            AdmissionDecision::Rejected {
                reason: RejectReason::StretchBound,
            },
        ] {
            let json = serde_json::to_string(&d).unwrap();
            let back: AdmissionDecision = serde_json::from_str(&json).unwrap();
            assert_eq!(back, d);
        }
    }
}
