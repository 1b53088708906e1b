//! Event-level execution of one model function call on the virtual
//! timelines.
//!
//! Each DP replica runs its own pipeline; micro-batches flow through the
//! pipeline stages as compute / TP-collective / boundary-P2P events, with
//! per-event log-normal jitter. Decoding is simulated in chunks of
//! [`crate::EngineConfig::decode_chunk`] steps with the KV-cache length
//! advanced per chunk.

use crate::config::EngineConfig;
use crate::layout::Layout;
use real_cluster::CommModel;
use real_dataflow::{CallAssignment, CallType, SpecChoice};
use real_model::cost::{CostModel, KERNELS_PER_LAYER_FWD};
use real_model::specdec::{self, DecodeShape};
use real_sim::KernelLabel::{self, *};
use real_sim::{Category, FaultClock, Timelines, Trace};
use real_util::DeterministicRng;

/// Fraction of a ZeRO-3 all-gather that bucketing and the bounded prefetch
/// queue keep on the critical path even when compute could hide it.
const ZERO3_GATHER_FLOOR: f64 = 0.55;

/// Mutable execution context shared by the call executors.
pub struct ExecCtx<'a> {
    /// Cost model of the call's architecture.
    pub cost: &'a CostModel,
    /// True link parameters of the cluster.
    pub comm: &'a CommModel,
    /// Virtual GPU timelines.
    pub tl: &'a mut Timelines,
    /// Optional kernel trace.
    pub trace: &'a mut Trace,
    /// Jitter stream.
    pub rng: &'a mut DeterministicRng,
    /// Engine knobs.
    pub cfg: &'a EngineConfig,
    /// Whether this call's model runs in ZeRO-3 mode.
    pub zero3: bool,
    /// Compiled fault schedule; `None` keeps execution on the exact
    /// fault-free path (bit-identical timings).
    pub faults: Option<&'a FaultClock>,
}

/// Whether a category rides the interconnect (and is therefore subject to
/// link-degradation faults in addition to GPU slowdowns).
fn is_comm(cat: Category) -> bool {
    !matches!(cat, Category::Compute | Category::Launch)
}

impl ExecCtx<'_> {
    fn jitter(&mut self) -> f64 {
        self.rng.lognormal_factor(self.cfg.jitter_sigma)
    }

    fn event(
        &mut self,
        gpus: &[usize],
        ready: f64,
        dur: f64,
        cat: Category,
        label: KernelLabel,
    ) -> f64 {
        if dur <= 0.0 {
            return ready.max(
                gpus.iter()
                    .map(|&g| self.tl.gpu(g).busy_until())
                    .fold(0.0, f64::max),
            );
        }
        let mut dur = dur * self.jitter();
        if let Some(f) = self.faults {
            let start = gpus
                .iter()
                .map(|&g| self.tl.gpu(g).busy_until())
                .fold(ready, f64::max);
            dur = f.stretched(gpus, start, dur, is_comm(cat));
        }
        let end = self.tl.collective(gpus, ready, dur, cat);
        if self.trace.enabled() {
            for &g in gpus {
                self.trace.record(g, end - dur, end, cat, label);
            }
        }
        end
    }

    /// A pipeline-boundary P2P transfer with jitter, fault stretching, and
    /// optional trace recording (on the source GPU). Returns `ready`
    /// unchanged when the transfer is free (same-node leaders).
    fn p2p_event(
        &mut self,
        src: usize,
        dst: usize,
        ready: f64,
        dur: f64,
        label: Option<KernelLabel>,
    ) -> f64 {
        if dur <= 0.0 {
            return ready;
        }
        let mut d2 = dur * self.jitter();
        if let Some(f) = self.faults {
            let pair: &[usize] = if src == dst { &[src] } else { &[src, dst] };
            let start = pair
                .iter()
                .map(|&g| self.tl.gpu(g).busy_until())
                .fold(ready, f64::max);
            d2 = f.stretched(pair, start, d2, true);
        }
        let e = self.tl.p2p(src, dst, ready, d2, Category::PpComm);
        if let Some(label) = label {
            if self.trace.enabled() {
                self.trace.record(src, e - d2, e, Category::PpComm, label);
            }
        }
        e
    }
}

/// Executes a call; returns its completion time (max over DP replicas).
pub fn execute_call(ctx: &mut ExecCtx<'_>, a: &CallAssignment, call: CallType, ready: f64) -> f64 {
    let layout = Layout::new(a);
    match call {
        CallType::Generate {
            batch,
            prompt_len,
            gen_len,
        } => generate(ctx, a, &layout, batch, prompt_len, gen_len, ready),
        CallType::Inference { batch, seq_len } => {
            forward_pass(ctx, a, &layout, batch, seq_len, ready, Pass::Inference)
        }
        CallType::TrainStep {
            batch,
            seq_len,
            n_minibatches,
        } => train(ctx, a, &layout, batch, seq_len, n_minibatches, ready),
    }
}

/// The plan's speculative-decoding attachment for one generation call: the
/// [`SpecChoice`] plus a cost model of the draft architecture — the same
/// [`CostModel`] the estimator prices drafts with, so the runtime's
/// profitability decision and the planner's agree.
pub struct SpecExec<'a> {
    /// Analytic cost model of the draft architecture.
    pub draft_cost: &'a CostModel,
    /// The plan's choice (draft, `k`, acceptance curve, draft placement).
    pub choice: &'a SpecChoice,
}

/// One cost model per distinct draft architecture referenced by `plan`'s
/// speculation choices. Empty when the plan decodes plainly, so spec-free
/// runs never construct a draft model.
pub(crate) fn draft_cost_models(
    cluster: &real_cluster::ClusterSpec,
    plan: &real_dataflow::ExecutionPlan,
) -> std::collections::HashMap<String, CostModel> {
    let mut out: std::collections::HashMap<String, CostModel> = std::collections::HashMap::new();
    for (_, choice) in plan.spec_choices() {
        out.entry(choice.config.draft_model.name.clone())
            .or_insert_with(|| CostModel::new(cluster.clone(), choice.config.draft_model.clone()));
    }
    out
}

/// The speculative attachment for `call` under `plan`, resolved against a
/// prebuilt draft cost-model map. `None` when the call decodes plainly or
/// the draft architecture is absent from the map (plain-decode fallback).
pub(crate) fn spec_exec_for<'a>(
    plan: &'a real_dataflow::ExecutionPlan,
    call: real_dataflow::CallId,
    draft_costs: &'a std::collections::HashMap<String, CostModel>,
) -> Option<SpecExec<'a>> {
    plan.spec_choice(call).and_then(|c| {
        draft_costs
            .get(&c.config.draft_model.name)
            .map(|dc| SpecExec {
                draft_cost: dc,
                choice: c,
            })
    })
}

/// Executes a call with an optional speculative-decoding attachment.
/// `None` (or a non-generation call) takes exactly the [`execute_call`]
/// path — same events, same RNG draws, byte-identical timings.
pub fn execute_call_spec(
    ctx: &mut ExecCtx<'_>,
    a: &CallAssignment,
    call: CallType,
    ready: f64,
    spec: Option<&SpecExec<'_>>,
) -> f64 {
    match (call, spec) {
        (
            CallType::Generate {
                batch,
                prompt_len,
                gen_len,
            },
            Some(spec),
        ) => {
            let layout = Layout::new(a);
            generate_spec(ctx, a, &layout, batch, prompt_len, gen_len, ready, spec)
        }
        _ => execute_call(ctx, a, call, ready),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Pass {
    /// Inference or prefill: forward only, head on the last stage.
    Inference,
    /// Generation prefill: forward only, no full-batch head (only the last
    /// token is sampled).
    Prefill,
}

/// Per-replica sequence count.
fn replica_batch(batch: u64, a: &CallAssignment) -> u64 {
    batch.div_ceil(u64::from(a.strategy.dp()))
}

/// One TP all-reduce duration for `tokens` tokens on `group`.
fn ar_dur(ctx: &ExecCtx<'_>, layout: &Layout, group: &[usize], tokens: u64) -> f64 {
    let tp = group.len() as u32;
    if tp <= 1 {
        return 0.0;
    }
    let bytes = tokens as f64 * ctx.cost.model().hidden as f64 * 2.0;
    ctx.comm.all_reduce(bytes, tp, layout.within_node(group))
}

/// Boundary P2P duration for `tokens` TP-sharded tokens.
fn p2p_dur(
    ctx: &ExecCtx<'_>,
    layout: &Layout,
    src: usize,
    dst: usize,
    tokens: u64,
    tp: u32,
) -> f64 {
    let bytes = tokens as f64 * ctx.cost.model().hidden as f64 * 2.0 / f64::from(tp.max(1));
    ctx.comm.p2p(bytes, layout.pair_within_node(src, dst))
}

/// Forward-only pass (inference, or generation prefill): a GPipe-style
/// forward pipeline over micro-batches, per DP replica.
#[allow(clippy::too_many_arguments)]
fn forward_pass(
    ctx: &mut ExecCtx<'_>,
    a: &CallAssignment,
    layout: &Layout,
    batch: u64,
    seq_len: u64,
    ready: f64,
    pass: Pass,
) -> f64 {
    let s = a.strategy;
    let (dp, tp, pp, mbs) = (s.dp(), s.tp(), s.pp(), s.micro_batches());
    let batch_r = replica_batch(batch, a);
    let batch_mb = batch_r.div_ceil(u64::from(mbs)).max(1);
    let tokens_mb = batch_mb * seq_len;
    let stages = s.stage_layers(ctx.cost.model().n_layers);
    let world = s.world_size();

    let mut done = ready;
    for d in 0..dp {
        // p2p_out[stage] = completion of the previous micro-batch's boundary
        // transfer into stage+1; per-mb chaining is tracked via `arrive`.
        let mut replica_end = ready;
        let mut prev_arrive = vec![ready; pp as usize];
        for _mb in 0..mbs {
            let mut arrive = ready;
            for (stage_idx, range) in stages.iter().enumerate() {
                let stage = stage_idx as u32;
                let group: Vec<usize> = layout.tp_group(stage, d).to_vec();
                let layers = range.end - range.start;
                let stage_ready = arrive.max(prev_arrive[stage_idx]);

                let mut t = stage_ready;
                let mut compute =
                    layers as f64 * ctx.cost.layer_fwd_time(tokens_mb, seq_len / 2, tp, true);
                if stage == 0 {
                    compute += ctx.cost.embed_time(tokens_mb, tp);
                }
                if stage == pp - 1 && pass == Pass::Inference {
                    compute += ctx.cost.head_time(tokens_mb, tp, false);
                }
                if ctx.zero3 {
                    // DeepSpeed prefetches the next layer's weights while the
                    // current one computes: only the non-overlapped excess
                    // stalls the stream.
                    let gather =
                        layers as f64 * ctx.cost.zero3_allgather_time(world, a.mesh.n_nodes() == 1);
                    let excess = (gather - compute).max(gather * ZERO3_GATHER_FLOOR);
                    t = ctx.event(&group, t, excess, Category::DpComm, Zero3Allgather);
                }
                t = ctx.event(&group, t, compute, Category::Compute, LayerFwd);
                let ar = layers as f64 * 2.0 * ar_dur(ctx, layout, &group, tokens_mb);
                t = ctx.event(&group, t, ar, Category::TpComm, TpAllreduce);

                prev_arrive[stage_idx] = t;
                if stage < pp - 1 {
                    let src = Layout::leader(&group);
                    let dst = Layout::leader(layout.tp_group(stage + 1, d));
                    let dur = p2p_dur(ctx, layout, src, dst, tokens_mb, tp);
                    arrive = ctx.p2p_event(src, dst, t, dur, Some(PpP2p));
                } else {
                    replica_end = replica_end.max(t);
                }
            }
        }
        done = done.max(replica_end);
    }
    done
}

/// Generation: prefill then chunked decoding with a one-chunk pipeline skew
/// between adjacent stages.
#[allow(clippy::too_many_arguments)]
fn generate(
    ctx: &mut ExecCtx<'_>,
    a: &CallAssignment,
    layout: &Layout,
    batch: u64,
    prompt_len: u64,
    gen_len: u64,
    ready: f64,
) -> f64 {
    let prefill_done = forward_pass(ctx, a, layout, batch, prompt_len, ready, Pass::Prefill);
    let realized_gen_len = realized_gen_len(ctx, gen_len);
    decode_loop(
        ctx,
        a,
        layout,
        batch,
        prompt_len,
        realized_gen_len,
        prefill_done,
        ready,
        LayerDecode,
    )
}

/// Realized generation length this iteration: the paper's protocol
/// (Appendix A) always decodes to the configured maximum, which
/// `gen_len_cv = 0` reproduces. A positive CV models the §7 limitation —
/// "the generation length varies significantly during training" — as a
/// per-iteration log-normal drift of the realized length. The estimator
/// keeps pricing the configured length, which is exactly the
/// unpredictability the paper warns invalidates its cost estimates.
fn realized_gen_len(ctx: &mut ExecCtx<'_>, gen_len: u64) -> u64 {
    if ctx.cfg.gen_len_cv > 0.0 {
        let f = ctx.rng.lognormal_factor(ctx.cfg.gen_len_cv);
        ((gen_len as f64 * f) as u64).max(1)
    } else {
        gen_len
    }
}

/// The chunked token-by-token decode pipeline shared by plain generation
/// (`compute_label = LayerDecode`) and the speculative path's
/// not-profitable fallback (`SpecFallbackDecode`) — same events, same
/// RNG draws; only the compute label differs.
#[allow(clippy::too_many_arguments)]
fn decode_loop(
    ctx: &mut ExecCtx<'_>,
    a: &CallAssignment,
    layout: &Layout,
    batch: u64,
    prompt_len: u64,
    realized_gen_len: u64,
    prefill_done: f64,
    ready: f64,
    compute_label: KernelLabel,
) -> f64 {
    let s = a.strategy;
    let (dp, tp, pp, mbs) = (s.dp(), s.tp(), s.pp(), s.micro_batches());
    let batch_r = replica_batch(batch, a);
    let batch_mb = batch_r.div_ceil(u64::from(mbs)).max(1);
    let stages = s.stage_layers(ctx.cost.model().n_layers);
    let chunk = ctx.cfg.decode_chunk.max(1);

    let mut done = prefill_done;
    for d in 0..dp {
        let replica_gen_len = realized_gen_len;
        let n_chunks = replica_gen_len.div_ceil(chunk);
        // stage_end[s] = completion of that stage's previous chunk.
        let mut stage_end = vec![prefill_done; pp as usize];
        for c in 0..n_chunks {
            let steps = chunk.min(replica_gen_len - c * chunk);
            let past = prompt_len + c * chunk + steps / 2;
            let mut prev_stage_last = ready; // stage s-1's previous-chunk end
            for (stage_idx, range) in stages.iter().enumerate() {
                let stage = stage_idx as u32;
                let group: Vec<usize> = layout.tp_group(stage, d).to_vec();
                let layers = range.end - range.start;
                // One-chunk skew: stage s works on chunk c once it finished
                // chunk c-1 and stage s-1 finished chunk c-1.
                let stage_ready =
                    stage_end[stage_idx].max(if stage_idx == 0 { 0.0 } else { prev_stage_last });
                prev_stage_last = stage_end[stage_idx];

                let work = steps * u64::from(mbs);
                let mut compute =
                    (work * layers) as f64 * ctx.cost.layer_decode_time(batch_mb, past, tp, true);
                if stage == pp - 1 {
                    // Sampling head once per micro-batch per step.
                    compute += work as f64 * ctx.cost.head_time(batch_mb, tp, false);
                }
                let mut t = ctx.event(
                    &group,
                    stage_ready,
                    compute,
                    Category::Compute,
                    compute_label,
                );
                if !ctx.cfg.cuda_graph {
                    // Per-kernel launches plus the host decoding loop's
                    // per-step dispatch/synchronization, spread across the
                    // pipeline stages.
                    let launch = (work * layers * u64::from(KERNELS_PER_LAYER_FWD)) as f64
                        * ctx.cost.cluster().gpu.launch_overhead
                        + steps as f64 * ctx.cfg.host_decode_overhead / f64::from(pp);
                    t = ctx.event(&group, t, launch, Category::Launch, KernelLaunch);
                }
                let ar = (work * layers) as f64 * 2.0 * ar_dur(ctx, layout, &group, batch_mb);
                t = ctx.event(&group, t, ar, Category::TpComm, TpAllreduceDecode);
                if stage < pp - 1 {
                    let src = Layout::leader(&group);
                    let dst = Layout::leader(layout.tp_group(stage + 1, d));
                    let dur = work as f64 * p2p_dur(ctx, layout, src, dst, batch_mb, tp);
                    t = ctx.p2p_event(src, dst, t, dur, Some(PpP2pDecode));
                }
                stage_end[stage_idx] = t;
            }
        }
        done = done.max(*stage_end.last().expect("pp >= 1"));
    }
    done
}

/// Speculative generation: the target prefills as usual, the draft prefills
/// the prompt on its own mesh, then draft/verify rounds replace the plain
/// decode loop. Profitability is decided ONCE per call with the exact
/// [`real_model::specdec`] comparison the estimator's pricing uses; when
/// speculation does not pay, the plain decode loop runs under the
/// `spec_fallback_decode` label instead.
///
/// Each round drafts `k` tokens on the draft mesh, verifies `k + 1`
/// positions in one target forward, and draws the number of accepted tokens
/// per position from the acceptance curve on the deterministic RNG — so the
/// virtual clock advances by however many rounds this seed actually needs.
/// Rounds are aggregated into trace spans of roughly
/// [`EngineConfig::decode_chunk`] drafted tokens (`spec_draft_decode` on the
/// draft mesh, `spec_verify_fwd` on the target mesh).
#[allow(clippy::too_many_arguments)]
fn generate_spec(
    ctx: &mut ExecCtx<'_>,
    a: &CallAssignment,
    layout: &Layout,
    batch: u64,
    prompt_len: u64,
    gen_len: u64,
    ready: f64,
    spec: &SpecExec<'_>,
) -> f64 {
    let s = a.strategy;
    let batch_mb = replica_batch(batch, a)
        .div_ceil(u64::from(s.micro_batches()))
        .max(1);
    let cfg = &spec.choice.config;

    // The estimator's decode shape, reproduced exactly so both layers make
    // the same profitability call.
    let shape = DecodeShape {
        batch: batch_mb,
        past_len: prompt_len + gen_len / 2,
        cuda_graph: true,
        within_node: a.tp_within_node(),
    };
    let tp_draft = spec.choice.assignment.strategy.tp();
    let plain = specdec::plain_step_time(ctx.cost, &shape, s.tp());
    let spec_step =
        specdec::spec_decode_step_time(ctx.cost, spec.draft_cost, cfg, &shape, s.tp(), tp_draft);
    let profitable = plain > 0.0 && spec_step < plain;

    let prefill_done = forward_pass(ctx, a, layout, batch, prompt_len, ready, Pass::Prefill);
    let realized_gen_len = realized_gen_len(ctx, gen_len);

    if !profitable {
        return decode_loop(
            ctx,
            a,
            layout,
            batch,
            prompt_len,
            realized_gen_len,
            prefill_done,
            ready,
            SpecFallbackDecode,
        );
    }

    let draft_gpus: Vec<usize> = spec
        .choice
        .assignment
        .mesh
        .gpus()
        .map(|g| g.0 as usize)
        .collect();
    let target_gpus: Vec<usize> = a.mesh.gpus().map(|g| g.0 as usize).collect();

    // Draft prefill on the draft mesh (the draft builds its KV cache before
    // it can draft), priced with the same analytic formula as the
    // estimator's `draft_prefill_secs`.
    let ds = &spec.choice.assignment.strategy;
    let d_mbs = u64::from(ds.micro_batches());
    let d_pp = u64::from(ds.pp());
    let d_batch_mb = batch.div_ceil(u64::from(ds.dp())).div_ceil(d_mbs).max(1);
    let d_tokens_mb = d_batch_mb * prompt_len;
    let d_stage_layers = ds.max_stage_layers(spec.draft_cost.model().n_layers) as f64;
    let d_within = spec.choice.assignment.tp_within_node();
    let d_prefill = (d_mbs + d_pp - 1) as f64
        * d_stage_layers
        * (spec
            .draft_cost
            .layer_fwd_time(d_tokens_mb, prompt_len / 2, ds.tp(), false)
            + 2.0
                * spec
                    .draft_cost
                    .tp_allreduce_time(d_tokens_mb, ds.tp(), d_within));
    let draft_ready = ctx.event(
        &draft_gpus,
        ready,
        d_prefill,
        Category::Compute,
        SpecDraftPrefill,
    );

    // Draft/verify rounds with per-round accepted-token accounting.
    let k = cfg.speculation_len;
    let draft_step = specdec::plain_step_time(spec.draft_cost, &shape, tp_draft);
    let verify = specdec::verify_fwd_time(ctx.cost, &shape, s.tp(), u64::from(k) + 1);
    let chunk = ctx.cfg.decode_chunk.max(1);

    let mut t = prefill_done.max(draft_ready);
    let mut produced = 0u64;
    let mut pending_rounds = 0u64;
    while produced < realized_gen_len {
        let mut accepted = 0u32;
        for i in 0..k {
            if ctx.rng.uniform() < cfg.acceptance_curve.rate_at(i) {
                accepted += 1;
            } else {
                break;
            }
        }
        produced += u64::from(accepted) + 1;
        pending_rounds += 1;
        if pending_rounds * u64::from(k) >= chunk || produced >= realized_gen_len {
            let draft_dur = (pending_rounds * u64::from(k)) as f64 * draft_step;
            let verify_dur = pending_rounds as f64 * verify;
            let drafted = ctx.event(
                &draft_gpus,
                t,
                draft_dur,
                Category::Compute,
                SpecDraftDecode,
            );
            t = ctx.event(
                &target_gpus,
                drafted,
                verify_dur,
                Category::Compute,
                SpecVerifyFwd,
            );
            pending_rounds = 0;
        }
    }
    t
}

/// Training: per PPO mini-batch, a GPipe forward+backward pipeline, then the
/// DP gradient all-reduce and the optimizer step (sequential updates, §2.1).
#[allow(clippy::too_many_arguments)]
fn train(
    ctx: &mut ExecCtx<'_>,
    a: &CallAssignment,
    layout: &Layout,
    batch: u64,
    seq_len: u64,
    n_minibatches: u32,
    ready: f64,
) -> f64 {
    let s = a.strategy;
    let (dp, tp, pp, mbs) = (s.dp(), s.tp(), s.pp(), s.micro_batches());
    let n_mini = u64::from(n_minibatches.max(1));
    let batch_r = replica_batch(batch, a);
    let batch_mb = batch_r.div_ceil(n_mini).div_ceil(u64::from(mbs)).max(1);
    let tokens_mb = batch_mb * seq_len;
    let stages = s.stage_layers(ctx.cost.model().n_layers);
    let world = s.world_size();
    let shard = real_model::MemoryModel::new(ctx.cost.model().clone()).params_per_gpu(&s);

    let mut done = ready;
    for d in 0..dp {
        let mut mini_done = ready;
        for _mini in 0..n_mini {
            // Forward sweep.
            let mut fwd_out = vec![mini_done; mbs as usize]; // last-stage completion per mb
            {
                let mut prev_arrive = vec![mini_done; pp as usize];
                for mb in 0..mbs {
                    let mut arrive = mini_done;
                    for (stage_idx, range) in stages.iter().enumerate() {
                        let stage = stage_idx as u32;
                        let group: Vec<usize> = layout.tp_group(stage, d).to_vec();
                        let layers = range.end - range.start;
                        let stage_ready = arrive.max(prev_arrive[stage_idx]);
                        let mut t = stage_ready;
                        let mut compute = layers as f64
                            * ctx.cost.layer_fwd_time(tokens_mb, seq_len / 2, tp, true);
                        if stage == 0 {
                            compute += ctx.cost.embed_time(tokens_mb, tp);
                        }
                        if stage == pp - 1 {
                            compute += ctx.cost.head_time(tokens_mb, tp, false);
                        }
                        if ctx.zero3 {
                            let gather = layers as f64
                                * ctx.cost.zero3_allgather_time(world, a.mesh.n_nodes() == 1);
                            let excess = (gather - compute).max(gather * ZERO3_GATHER_FLOOR);
                            t = ctx.event(&group, t, excess, Category::DpComm, Zero3Allgather);
                        }
                        t = ctx.event(&group, t, compute, Category::Compute, LayerFwd);
                        let ar = layers as f64 * 2.0 * ar_dur(ctx, layout, &group, tokens_mb);
                        t = ctx.event(&group, t, ar, Category::TpComm, TpAllreduce);
                        prev_arrive[stage_idx] = t;
                        if stage < pp - 1 {
                            let src = Layout::leader(&group);
                            let dst = Layout::leader(layout.tp_group(stage + 1, d));
                            let dur = p2p_dur(ctx, layout, src, dst, tokens_mb, tp);
                            arrive = ctx.p2p_event(src, dst, t, dur, None);
                        } else {
                            fwd_out[mb as usize] = t;
                        }
                    }
                }
            }
            // Backward sweep (reverse stage order).
            let mut last_update_ready = mini_done;
            {
                let mut prev_arrive = vec![mini_done; pp as usize];
                for mb in 0..mbs {
                    let mut arrive = fwd_out[mb as usize];
                    for stage_idx in (0..pp as usize).rev() {
                        let stage = stage_idx as u32;
                        let range = &stages[stage_idx];
                        let group: Vec<usize> = layout.tp_group(stage, d).to_vec();
                        let layers = range.end - range.start;
                        let stage_ready = arrive.max(prev_arrive[stage_idx]);
                        let mut t = stage_ready;
                        let mut compute =
                            layers as f64 * ctx.cost.layer_bwd_time(tokens_mb, seq_len / 2, tp);
                        if stage == pp - 1 {
                            // Head backward (2x its forward cost).
                            compute += 2.0 * ctx.cost.head_time(tokens_mb, tp, false);
                        }
                        if ctx.zero3 {
                            let gather = layers as f64
                                * (ctx.cost.zero3_allgather_time(world, a.mesh.n_nodes() == 1)
                                    + ctx
                                        .cost
                                        .zero3_reduce_scatter_time(world, a.mesh.n_nodes() == 1));
                            let excess = (gather - compute).max(gather * ZERO3_GATHER_FLOOR);
                            t = ctx.event(&group, t, excess, Category::DpComm, Zero3Bwd);
                        }
                        t = ctx.event(&group, t, compute, Category::Compute, LayerBwd);
                        let ar = layers as f64 * 2.0 * ar_dur(ctx, layout, &group, tokens_mb);
                        t = ctx.event(&group, t, ar, Category::TpComm, TpAllreduceBwd);
                        prev_arrive[stage_idx] = t;
                        if stage > 0 {
                            let src = Layout::leader(&group);
                            let dst = Layout::leader(layout.tp_group(stage - 1, d));
                            let dur = p2p_dur(ctx, layout, src, dst, tokens_mb, tp);
                            arrive = ctx.p2p_event(src, dst, t, dur, None);
                        } else {
                            last_update_ready = last_update_ready.max(t);
                        }
                        last_update_ready = last_update_ready.max(t);
                    }
                }
            }
            mini_done = last_update_ready;
        }
        done = done.max(mini_done);
    }

    // Gradient synchronization + optimizer once per mini-batch; since the
    // per-replica loops above already serialize mini-batches, charging the
    // sync/update n_mini times at the end is duration-equivalent and keeps
    // the event count linear.
    let mut final_end = done;
    for _ in 0..n_mini {
        let mut sync_end = final_end;
        if dp > 1 && !ctx.zero3 {
            for stage in 0..pp {
                for t_rank in 0..tp {
                    let group: Vec<usize> = layout.dp_group(stage, t_rank).to_vec();
                    let dur =
                        ctx.comm
                            .all_reduce(shard as f64 * 4.0, dp, layout.within_node(&group));
                    let e = ctx.event(&group, final_end, dur, Category::DpComm, GradAllreduce);
                    sync_end = sync_end.max(e);
                }
            }
        }
        // Optimizer step on every GPU of the mesh.
        let optim = ctx.cost.optim_step_time(shard);
        let mut opt_end = sync_end;
        for d in 0..dp {
            for stage in 0..pp {
                let group: Vec<usize> = layout.tp_group(stage, d).to_vec();
                let e = ctx.event(&group, sync_end, optim, Category::Compute, AdamStep);
                opt_end = opt_end.max(e);
            }
        }
        final_end = opt_end;
    }
    final_end
}

#[cfg(test)]
mod tests {
    use super::*;
    use real_cluster::{ClusterSpec, DeviceMesh};
    use real_model::{ModelSpec, ParallelStrategy};

    #[allow(clippy::too_many_arguments)]
    fn run_call(
        cluster: &ClusterSpec,
        model: &ModelSpec,
        dp: u32,
        tp: u32,
        pp: u32,
        mbs: u32,
        call: CallType,
        cuda_graph: bool,
    ) -> (f64, Timelines) {
        let cost = CostModel::new(cluster.clone(), model.clone());
        let comm = CommModel::new(cluster);
        let mut tl = Timelines::new(cluster.total_gpus() as usize);
        let mut trace = Trace::disabled();
        let mut rng = DeterministicRng::from_seed(7);
        let cfg = EngineConfig {
            cuda_graph,
            ..EngineConfig::deterministic()
        };
        let a = CallAssignment::new(
            DeviceMesh::full(cluster),
            ParallelStrategy::new(dp, tp, pp, mbs).unwrap(),
        )
        .unwrap();
        let mut ctx = ExecCtx {
            cost: &cost,
            comm: &comm,
            tl: &mut tl,
            trace: &mut trace,
            rng: &mut rng,
            cfg: &cfg,
            zero3: false,
            faults: None,
        };
        let end = execute_call(&mut ctx, &a, call, 0.0);
        (end, tl)
    }

    #[test]
    fn inference_busy_matches_duration_roughly() {
        let cluster = ClusterSpec::h100(1);
        let call = CallType::Inference {
            batch: 32,
            seq_len: 1024,
        };
        let (end, tl) = run_call(&cluster, &ModelSpec::llama3_7b(), 1, 8, 1, 4, call, true);
        assert!(end > 0.0);
        // All 8 GPUs work in lockstep (tp=8, pp=1): idle should be tiny.
        assert!(
            tl.idle_total() < 0.05 * end * 8.0,
            "idle {}",
            tl.idle_total()
        );
    }

    #[test]
    fn decode_dominates_generation_time() {
        let cluster = ClusterSpec::h100(1);
        let model = ModelSpec::llama3_7b();
        let gen = CallType::Generate {
            batch: 32,
            prompt_len: 1024,
            gen_len: 1024,
        };
        let inf = CallType::Inference {
            batch: 32,
            seq_len: 1024,
        };
        let (gen_end, _) = run_call(&cluster, &model, 1, 8, 1, 4, gen, true);
        let (inf_end, _) = run_call(&cluster, &model, 1, 8, 1, 4, inf, true);
        assert!(gen_end > 5.0 * inf_end, "gen {gen_end} inf {inf_end}");
    }

    #[test]
    fn cuda_graph_speeds_up_decoding() {
        let cluster = ClusterSpec::h100(1);
        let model = ModelSpec::llama3_7b();
        let gen = CallType::Generate {
            batch: 32,
            prompt_len: 512,
            gen_len: 512,
        };
        let (with, tl_with) = run_call(&cluster, &model, 1, 8, 1, 4, gen, true);
        let (without, tl_without) = run_call(&cluster, &model, 1, 8, 1, 4, gen, false);
        assert!(without > 1.2 * with, "with {with} without {without}");
        // Launch overhead shows up as its own category only when ungraphed.
        assert_eq!(
            tl_with
                .totals()
                .iter()
                .find(|(c, _)| *c == Category::Launch)
                .unwrap()
                .1,
            0.0
        );
        assert!(tl_without.busy(0, Category::Launch) > 0.0);
    }

    #[test]
    fn training_records_tp_and_dp_comm() {
        let cluster = ClusterSpec::h100(1);
        let call = CallType::TrainStep {
            batch: 64,
            seq_len: 512,
            n_minibatches: 2,
        };
        let (_, tl) = run_call(&cluster, &ModelSpec::llama3_7b(), 2, 4, 1, 2, call, true);
        assert!(tl.busy(0, Category::TpComm) > 0.0);
        assert!(tl.busy(0, Category::DpComm) > 0.0);
        assert!(tl.busy(0, Category::Compute) > tl.busy(0, Category::TpComm));
    }

    #[test]
    fn pipeline_uses_pp_comm() {
        let cluster = ClusterSpec::h100(1);
        let call = CallType::TrainStep {
            batch: 32,
            seq_len: 512,
            n_minibatches: 1,
        };
        let (_, tl) = run_call(&cluster, &ModelSpec::llama3_7b(), 1, 4, 2, 4, call, true);
        let pp_comm: f64 = (0..8).map(|g| tl.busy(g, Category::PpComm)).sum();
        assert!(pp_comm > 0.0);
    }

    #[test]
    fn more_microbatches_reduce_pipeline_bubbles() {
        let cluster = ClusterSpec::h100(1);
        let model = ModelSpec::llama3_7b();
        let call = CallType::TrainStep {
            batch: 64,
            seq_len: 1024,
            n_minibatches: 1,
        };
        let (few, _) = run_call(&cluster, &model, 1, 1, 8, 1, call, true);
        let (many, _) = run_call(&cluster, &model, 1, 1, 8, 8, call, true);
        assert!(many < few, "mbs=8 {many} should beat mbs=1 {few}");
    }

    #[test]
    fn dp_replicas_run_concurrently() {
        let cluster = ClusterSpec::h100(1);
        let model = ModelSpec::llama3_7b();
        let inf = CallType::Inference {
            batch: 64,
            seq_len: 512,
        };
        // Same total work split over more replicas: wall time drops.
        let (one, _) = run_call(&cluster, &model, 1, 8, 1, 2, inf, true);
        let (two, _) = run_call(&cluster, &model, 2, 4, 1, 2, inf, true);
        // tp=4 halves per-GPU sharding but dp=2 halves the per-replica
        // batch; the result should be in the same ballpark, definitely not
        // 2x worse (replicas must overlap).
        assert!(two < 1.5 * one, "one {one} two {two}");
    }

    #[test]
    fn generation_length_skew_only_shortens() {
        let cluster = ClusterSpec::h100(1);
        let model = ModelSpec::llama3_7b();
        let gen = CallType::Generate {
            batch: 64,
            prompt_len: 512,
            gen_len: 512,
        };
        let fixed = {
            let (t, _) = run_call(&cluster, &model, 4, 2, 1, 1, gen, true);
            t
        };
        // Re-run with skew through a custom config.
        let cost = CostModel::new(cluster.clone(), model.clone());
        let comm = CommModel::new(&cluster);
        let mut tl = Timelines::new(8);
        let mut trace = Trace::disabled();
        let mut rng = DeterministicRng::from_seed(7);
        let cfg = EngineConfig {
            gen_len_cv: 0.8,
            ..EngineConfig::deterministic()
        };
        let a = CallAssignment::new(
            DeviceMesh::full(&cluster),
            ParallelStrategy::new(4, 2, 1, 1).unwrap(),
        )
        .unwrap();
        let mut ctx = ExecCtx {
            cost: &cost,
            comm: &comm,
            tl: &mut tl,
            trace: &mut trace,
            rng: &mut rng,
            cfg: &cfg,
            zero3: false,
            faults: None,
        };
        let skewed = execute_call(&mut ctx, &a, gen, 0.0);
        // Drift changes the realized duration; the log-normal factor is
        // clamped to [1/4, 4], which bounds the excursion.
        assert!(
            skewed >= fixed * 0.2 && skewed <= fixed * 4.5,
            "skewed {skewed} fixed {fixed}"
        );
        assert!(
            (skewed - fixed).abs() / fixed > 0.01,
            "drift should be visible"
        );
    }

    #[test]
    fn scalar_head_cheaper_than_lm_head_end_to_end() {
        let cluster = ClusterSpec::h100(1);
        let inf = CallType::Inference {
            batch: 64,
            seq_len: 2048,
        };
        let (actor, _) = run_call(&cluster, &ModelSpec::llama3_7b(), 1, 8, 1, 4, inf, true);
        let (critic, _) = run_call(
            &cluster,
            &ModelSpec::llama3_7b().critic(),
            1,
            8,
            1,
            4,
            inf,
            true,
        );
        assert!(critic < actor);
        // Sanity: both heads exist in the models.
        assert_eq!(
            ModelSpec::llama3_7b().head,
            real_model::spec::HeadKind::LmHead
        );
    }
}
