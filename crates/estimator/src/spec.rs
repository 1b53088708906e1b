//! Speculative-decoding pricing glue for the estimator.
//!
//! An [`ExecutionPlan`](real_dataflow::ExecutionPlan) may attach a
//! [`SpecChoice`] to a generation call: a draft model, a speculation length,
//! an acceptance curve, and the draft's own `(mesh, strategy)` placement.
//! This module turns that choice into the three quantities the estimator
//! needs:
//!
//! - **duration** — [`spec_generate_duration`] rescales only the *decode*
//!   phase of the profiled generation price by the spec-vs-plain per-token
//!   ratio from [`real_model::specdec`] (the single source of truth all
//!   three layers share), and adds the draft's analytic prefill. The
//!   prefill phase is untouched: drafting only replaces decode rounds.
//! - **devices** — the draft's mesh joins the call's occupied meshes, so
//!   Algorithm 1 serializes anything colocated with the draft while the
//!   call runs.
//! - **memory** — [`draft_active_bytes`] prices the draft's resident
//!   weights plus its KV cache on the draft mesh; it sums with whatever
//!   else lives there (the draft stays loaded while speculation is on).
//!
//! The draft model is deliberately priced *analytically* (via
//! [`CostModel`]) rather than from a [`ProfileDb`](real_profiler::ProfileDb)
//! — draft architectures are not part of the dataflow graph, so the
//! profiler never times them; the estimator-vs-runtime agreement is
//! preserved because the runtime master prices drafts with the same
//! [`CostModel`].

use crate::assemble::{self, Shape};
use crate::Estimator;
use real_dataflow::{CallAssignment, CallId, CallType, SpecChoice};
use real_model::specdec::{self, DecodeShape};
use real_model::{CostModel, MemoryModel};

/// The decode working shape of a generation call under an assignment: the
/// per-micro-batch sequence count and the average context length, decoded
/// through CUDA graphs, with the TP all-reduce locality read off the
/// assignment. Returns `None` for non-generation calls (speculation only
/// applies to generation).
pub fn decode_shape(call_type: &CallType, a: &CallAssignment) -> Option<DecodeShape> {
    let CallType::Generate {
        batch,
        prompt_len,
        gen_len,
    } = *call_type
    else {
        return None;
    };
    let mbs = u64::from(a.strategy.micro_batches());
    let batch_r = batch.div_ceil(u64::from(a.strategy.dp()));
    Some(DecodeShape {
        batch: batch_r.div_ceil(mbs).max(1),
        past_len: prompt_len + gen_len / 2,
        cuda_graph: true,
        within_node: a.tp_within_node(),
    })
}

/// The spec-vs-plain per-token decode ratio in `(0, 1]` for a generation
/// call. `1.0` means speculation does not pay (the runtime falls back to
/// plain decode, so a plan can never get slower); values below `1.0` scale
/// the decode phase of the profiled generation price.
pub fn speedup_ratio(
    est: &Estimator,
    call: CallId,
    a: &CallAssignment,
    choice: &SpecChoice,
) -> f64 {
    let def = est.graph().call(call);
    let Some(shape) = decode_shape(&def.call_type, a) else {
        return 1.0;
    };
    let target = CostModel::new(est.cluster().clone(), def.model.clone());
    let draft = CostModel::new(est.cluster().clone(), choice.config.draft_model.clone());
    let plain = specdec::plain_step_time(&target, &shape, a.strategy.tp());
    if plain <= 0.0 {
        return 1.0;
    }
    let spec = specdec::spec_decode_step_time(
        &target,
        &draft,
        &choice.config,
        &shape,
        a.strategy.tp(),
        choice.assignment.strategy.tp(),
    );
    spec / plain
}

/// Whether speculation actually beats plain decode for this call — the
/// profitability predicate the search's greedy polish and the runtime's
/// fallback both consult, so the three layers agree on the decision.
pub fn profitable(est: &Estimator, call: CallId, a: &CallAssignment, choice: &SpecChoice) -> bool {
    speedup_ratio(est, call, a, choice) < 1.0
}

/// Analytic prefill of the prompt through the draft model on its own
/// placement — the draft must build its KV cache before it can draft.
pub fn draft_prefill_secs(est: &Estimator, call: CallId, choice: &SpecChoice) -> f64 {
    let def = est.graph().call(call);
    let CallType::Generate {
        batch, prompt_len, ..
    } = def.call_type
    else {
        return 0.0;
    };
    let a = &choice.assignment;
    let s = &a.strategy;
    let m = CostModel::new(est.cluster().clone(), choice.config.draft_model.clone());
    let mbs = u64::from(s.micro_batches());
    let pp = u64::from(s.pp());
    let batch_mb = batch.div_ceil(u64::from(s.dp())).div_ceil(mbs).max(1);
    let tokens_mb = batch_mb * prompt_len;
    let stage_layers = s.max_stage_layers(choice.config.draft_model.n_layers) as f64;
    let stage = stage_layers
        * (m.layer_fwd_time(tokens_mb, prompt_len / 2, s.tp(), false)
            + 2.0 * m.tp_allreduce_time(tokens_mb, s.tp(), a.tp_within_node()));
    (mbs + pp - 1) as f64 * stage
}

/// Estimated duration of a speculative generation call: the profiled
/// prefill unchanged, the profiled decode scaled by [`speedup_ratio`], plus
/// the draft's own prefill. Health scaling is applied by the caller
/// ([`Estimator::spec_call_duration`]). Non-generation calls price exactly
/// as their plain duration.
pub fn spec_generate_duration(
    est: &Estimator,
    call: CallId,
    a: &CallAssignment,
    choice: &SpecChoice,
) -> f64 {
    let def = est.graph().call(call);
    let CallType::Generate {
        batch,
        prompt_len,
        gen_len,
    } = def.call_type
    else {
        return assemble::call_duration(def, &Shape::of(a), est.profile_for(call), est.comm());
    };
    let (prefill, decode) = assemble::generate_split_duration(
        def,
        &Shape::of(a),
        est.profile_for(call),
        est.comm(),
        batch,
        prompt_len,
        gen_len,
    );
    prefill + decode * speedup_ratio(est, call, a, choice) + draft_prefill_secs(est, call, choice)
}

/// Bytes the draft pins on every GPU of its mesh while speculation is
/// enabled: its frozen BF16 weights plus its KV cache for the call's full
/// sequence budget. Charged like static memory (it sums with colocated
/// contributions — the draft stays resident across the whole call).
pub fn draft_active_bytes(call_type: &CallType, choice: &SpecChoice) -> u64 {
    let CallType::Generate {
        batch,
        prompt_len,
        gen_len,
    } = *call_type
    else {
        return 0;
    };
    let s = &choice.assignment.strategy;
    let mm = MemoryModel::new(choice.config.draft_model.clone());
    let batch_r = batch.div_ceil(u64::from(s.dp()));
    mm.static_frozen_bytes(s) + mm.kv_cache_bytes(s, batch_r, prompt_len + gen_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::{ClusterSpec, DeviceMesh};
    use real_dataflow::{algo, DataflowGraph, ExecutionPlan};
    use real_model::specdec::AcceptanceCurve;
    use real_model::{ModelSpec, ParallelStrategy, SpecDecodeConfig};
    use real_profiler::{ProfileConfig, Profiler};

    fn setup() -> (ClusterSpec, DataflowGraph, Estimator) {
        let cluster = ClusterSpec::h100(2);
        let actor = ModelSpec::llama3_7b();
        let critic = actor.critic();
        let graph = algo::ppo(&actor, &critic, &algo::RlhfConfig::instruct_gpt(64));
        let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 7);
        let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
        let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
        (cluster, graph, est)
    }

    fn gen_call(graph: &DataflowGraph) -> CallId {
        graph.find("actor_gen").unwrap()
    }

    fn base_plan(cluster: &ClusterSpec, graph: &DataflowGraph) -> ExecutionPlan {
        let a = CallAssignment::new(
            DeviceMesh::full(cluster),
            ParallelStrategy::new(2, 8, 1, 1).unwrap(),
        )
        .unwrap();
        ExecutionPlan::new(graph, cluster, vec![a; graph.n_calls()]).unwrap()
    }

    fn choice(cluster: &ClusterSpec, alpha: f64, k: u32) -> SpecChoice {
        SpecChoice {
            config: SpecDecodeConfig {
                draft_model: ModelSpec::llama3_1b(),
                speculation_len: k,
                acceptance_curve: AcceptanceCurve::Constant(alpha),
            },
            assignment: CallAssignment::new(
                DeviceMesh::sub_node(cluster, 0, 0, 2).unwrap(),
                ParallelStrategy::new(1, 2, 1, 1).unwrap(),
            )
            .unwrap(),
        }
    }

    #[test]
    fn high_acceptance_cuts_generation_duration() {
        let (cluster, graph, est) = setup();
        let plan = base_plan(&cluster, &graph);
        let call = gen_call(&graph);
        let a = plan.assignment(call);
        let plain = est.call_duration(call, a);
        let spec = spec_generate_duration(&est, call, a, &choice(&cluster, 0.85, 4));
        assert!(
            spec < 0.8 * plain,
            "α=0.85 k=4 should cut generation well below plain: {spec} vs {plain}"
        );
    }

    #[test]
    fn zero_acceptance_never_beats_plain_and_stays_close() {
        let (cluster, graph, est) = setup();
        let plan = base_plan(&cluster, &graph);
        let call = gen_call(&graph);
        let a = plan.assignment(call);
        let c = choice(&cluster, 0.0, 4);
        assert!((speedup_ratio(&est, call, a, &c) - 1.0).abs() < 1e-12);
        assert!(!profitable(&est, call, a, &c));
        // Fallback pays only the draft prefill on top of plain.
        let plain = est.call_duration(call, a);
        let spec = spec_generate_duration(&est, call, a, &c);
        let prefill = draft_prefill_secs(&est, call, &c);
        assert!((spec - (plain + prefill)).abs() < 1e-9 * plain.max(1.0));
    }

    #[test]
    fn draft_memory_is_positive_and_small() {
        let (cluster, graph, _) = setup();
        let call_type = &graph.call(gen_call(&graph)).call_type;
        let bytes = draft_active_bytes(call_type, &choice(&cluster, 0.8, 4));
        // 1B draft on 2 GPUs: weights ~1.2 GiB/GPU + KV cache; far below an
        // 80 GiB device but clearly nonzero.
        assert!(bytes > 500 << 20, "bytes {bytes}");
        assert!(bytes < 20 << 30, "bytes {bytes}");
    }

    #[test]
    fn non_generation_calls_price_plain() {
        let (cluster, graph, est) = setup();
        let plan = base_plan(&cluster, &graph);
        let train = graph.find("actor_train").unwrap();
        let a = plan.assignment(train);
        let c = choice(&cluster, 0.9, 4);
        assert_eq!(
            spec_generate_duration(&est, train, a, &c),
            est.call_duration(train, a)
        );
        assert_eq!(draft_active_bytes(&graph.call(train).call_type, &c), 0);
    }
}
