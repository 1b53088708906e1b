//! GPU memory accounting (§5.1 "Maximum Memory Allocated").
//!
//! The paper splits runtime memory into *static* memory (gradients and
//! optimizer state, resident for the whole experiment) and *active* memory
//! (parameters being reallocated, KV cache, activations, logits) that is
//! only present while a function call runs. This module provides both, per
//! GPU, for a given [`ParallelStrategy`].

use crate::parallel::ParallelStrategy;
use crate::spec::{HeadKind, ModelSpec};
use serde::{Deserialize, Serialize};

/// Bytes per BF16 element.
const BF16: u64 = 2;
/// Static training bytes per parameter: BF16 weights (2) + fp32 gradient
/// buffer (4) + fp32 master copy, momentum, variance (12).
const TRAIN_BYTES_PER_PARAM: u64 = 18;
/// Static training bytes per parameter excluding the weights themselves
/// (used when weights are counted as reallocable active memory).
const OPTIM_BYTES_PER_PARAM: u64 = 16;
/// Effective bytes per logit element for the vocab head (BF16 logits plus
/// fused vocab-parallel cross-entropy workspace).
const LOGIT_BYTES: u64 = 3;

/// Memory model for one architecture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryModel {
    model: ModelSpec,
}

impl MemoryModel {
    /// Creates a memory model for `model`.
    pub fn new(model: ModelSpec) -> Self {
        Self { model }
    }

    /// The architecture being accounted.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// Parameters held by the most loaded GPU under `s`: the widest pipeline
    /// stage (stage 0 carries the input embedding; the last stage carries
    /// the output head and final norm), divided across the TP group.
    pub fn params_per_gpu(&self, s: &ParallelStrategy) -> u64 {
        let stages = s.stage_layers(self.model.n_layers);
        let mut worst = 0u64;
        for (i, range) in stages.iter().enumerate() {
            let mut p = (range.end - range.start) * self.model.layer_params();
            if i == 0 {
                p += self.model.embed_params();
            }
            if i == stages.len() - 1 {
                p += self.model.head_params() + self.model.hidden;
            }
            worst = worst.max(p);
        }
        worst.div_ceil(u64::from(s.tp()))
    }

    /// Static bytes per GPU for a *trainable* model under Megatron-style 3D
    /// parallelism: weights + gradients + Adam state, sharded over TP×PP but
    /// replicated across DP.
    pub fn static_train_bytes(&self, s: &ParallelStrategy) -> u64 {
        self.params_per_gpu(s) * TRAIN_BYTES_PER_PARAM
    }

    /// Static optimizer-only bytes per GPU (gradients + Adam state), for
    /// accounting schemes that treat the BF16 weights as reallocable active
    /// memory.
    pub fn static_optim_bytes(&self, s: &ParallelStrategy) -> u64 {
        self.params_per_gpu(s) * OPTIM_BYTES_PER_PARAM
    }

    /// Static optimizer-only bytes per GPU under Megatron's *distributed
    /// optimizer* (ZeRO-1): fp32 gradients stay replicated across DP, the
    /// Adam state (master weights, momentum, variance — 12 B/param) shards
    /// over the DP group. NeMo-Aligner's training backend runs this way.
    pub fn static_optim_bytes_dist(&self, s: &ParallelStrategy) -> u64 {
        let p = self.params_per_gpu(s);
        p * 4 + (p * 12).div_ceil(u64::from(s.dp()))
    }

    /// Static bytes per GPU for a *frozen* model (reference/reward): BF16
    /// weights only.
    pub fn static_frozen_bytes(&self, s: &ParallelStrategy) -> u64 {
        self.params_per_gpu(s) * BF16
    }

    /// Static bytes per GPU under ZeRO-3: everything sharded over the full
    /// `world` (DeepSpeed-Chat's symmetric strategy) — weights, gradients
    /// and Adam state for a `trainable` model, BF16 weights for a frozen
    /// one.
    pub fn zero3_static_bytes(&self, world: u32, trainable: bool) -> u64 {
        let per_param = if trainable {
            TRAIN_BYTES_PER_PARAM
        } else {
            BF16
        };
        (self.model.param_count() * per_param).div_ceil(u64::from(world.max(1)))
    }

    /// BF16 weight bytes per GPU (the payload parameter reallocation moves).
    pub fn weight_bytes_per_gpu(&self, s: &ParallelStrategy) -> u64 {
        self.params_per_gpu(s) * BF16
    }

    /// Activation bytes per GPU while training one micro-batch of
    /// `tokens_mb` tokens (per DP replica). With 1F1B pipelining up to
    /// `min(mbs, pp)` micro-batches are in flight on the first stage.
    pub fn train_activation_bytes(&self, s: &ParallelStrategy, tokens_mb: u64) -> u64 {
        let per_layer = tokens_mb * (2 * self.model.hidden + self.model.intermediate) * BF16
            / u64::from(s.tp());
        let layers = s.max_stage_layers(self.model.n_layers);
        let in_flight = u64::from(s.micro_batches().min(s.pp()));
        per_layer * layers * in_flight
    }

    /// Logit-tensor bytes per GPU for an LM-head forward over `tokens_mb`
    /// tokens — the paper's §8 footnote: this is the 250 GB tensor that
    /// forces micro-batching. Scalar heads cost nothing here.
    pub fn logits_bytes(&self, s: &ParallelStrategy, tokens_mb: u64) -> u64 {
        match self.model.head {
            HeadKind::LmHead => tokens_mb * self.model.vocab * LOGIT_BYTES / u64::from(s.tp()),
            HeadKind::ScalarHead => tokens_mb * 4,
        }
    }

    /// KV-cache bytes per GPU for `batch_mb` sequences of up to `max_len`
    /// tokens (one in-flight generation micro-batch).
    pub fn kv_cache_bytes(&self, s: &ParallelStrategy, batch_mb: u64, max_len: u64) -> u64 {
        let layers = s.max_stage_layers(self.model.n_layers);
        batch_mb * max_len * self.model.kv_dim() * 2 * BF16 * layers / u64::from(s.tp())
    }

    /// Peak active bytes per GPU for a training step: weights + the deeper
    /// of (activations, logits spike at the head).
    pub fn train_active_bytes(&self, s: &ParallelStrategy, tokens_replica: u64) -> u64 {
        let tokens_mb = tokens_replica.div_ceil(u64::from(s.micro_batches()));
        self.weight_bytes_per_gpu(s)
            + self.train_activation_bytes(s, tokens_mb)
            + self.logits_bytes(s, tokens_mb)
    }

    /// Peak active bytes per GPU for an inference (single forward) call.
    pub fn infer_active_bytes(&self, s: &ParallelStrategy, tokens_replica: u64) -> u64 {
        let tokens_mb = tokens_replica.div_ceil(u64::from(s.micro_batches()));
        let per_layer = tokens_mb * (2 * self.model.hidden) * BF16 / u64::from(s.tp());
        self.weight_bytes_per_gpu(s) + per_layer + self.logits_bytes(s, tokens_mb)
    }

    /// Peak active bytes per GPU for a generation call over `batch_replica`
    /// prompts (per DP replica) generating up to `total_len` tokens of
    /// context. Decoding keeps `min(pp, mbs)` micro-batches in flight — just
    /// enough to fill the pipeline stages (Table 2's `pp=4, mbs=4` plans) —
    /// and processes the remaining groups sequentially, which is the §4
    /// out-of-memory knob: raising `mbs` beyond `pp` shrinks the resident
    /// KV cache.
    pub fn gen_active_bytes(
        &self,
        s: &ParallelStrategy,
        batch_replica: u64,
        total_len: u64,
    ) -> u64 {
        let batch_mb = batch_replica.div_ceil(u64::from(s.micro_batches()));
        let in_flight = batch_mb * u64::from(s.pp().min(s.micro_batches()));
        self.weight_bytes_per_gpu(s)
            + self.kv_cache_bytes(s, in_flight.min(batch_replica), total_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;
    use real_util::units::GIB;

    fn strat(dp: u32, tp: u32, pp: u32, mbs: u32) -> ParallelStrategy {
        ParallelStrategy::new(dp, tp, pp, mbs).unwrap()
    }

    #[test]
    fn params_per_gpu_unsharded_is_total() {
        let mm = MemoryModel::new(ModelSpec::llama3_7b());
        assert_eq!(
            mm.params_per_gpu(&strat(1, 1, 1, 1)),
            mm.model().param_count()
        );
    }

    #[test]
    fn tp_shards_params_evenly() {
        let mm = MemoryModel::new(ModelSpec::llama3_7b());
        let full = mm.params_per_gpu(&strat(1, 1, 1, 1));
        let tp8 = mm.params_per_gpu(&strat(1, 8, 1, 1));
        assert!(tp8 >= full / 8);
        assert!(tp8 <= full / 8 + 1);
    }

    #[test]
    fn dp_does_not_shard_static_memory() {
        let mm = MemoryModel::new(ModelSpec::llama3_7b());
        assert_eq!(
            mm.static_train_bytes(&strat(1, 2, 2, 1)),
            mm.static_train_bytes(&strat(4, 2, 2, 1))
        );
    }

    #[test]
    fn zero3_shards_everything() {
        let mm = MemoryModel::new(ModelSpec::llama3_70b());
        let z16 = mm.zero3_static_bytes(16, true);
        let z128 = mm.zero3_static_bytes(128, true);
        assert!(z16 > 7 * z128);
        // 70B over 128 GPUs: ~10 GB/GPU.
        assert!(z128 > 8 * GIB && z128 < 12 * GIB, "{z128}");
    }

    #[test]
    fn seventy_b_oom_on_single_node_but_fits_on_32_shards() {
        let mm = MemoryModel::new(ModelSpec::llama3_70b());
        // tp=8 only: 70B*18/8 = 157 GB/GPU >> 80 GB.
        assert!(mm.static_train_bytes(&strat(1, 8, 1, 1)) > 80 * GIB);
        // tp=8, pp=4 (32-way model sharding): ~40 GB/GPU, fits.
        assert!(mm.static_train_bytes(&strat(1, 8, 4, 1)) < 80 * GIB);
    }

    #[test]
    fn distributed_optimizer_shards_adam_state_over_dp() {
        let mm = MemoryModel::new(ModelSpec::llama3_7b());
        let s1 = strat(1, 8, 1, 1);
        let s8 = strat(8, 1, 1, 1);
        // dp=1: identical to the replicated accounting.
        assert_eq!(mm.static_optim_bytes_dist(&s1), mm.static_optim_bytes(&s1));
        // dp=8: 4 + 12/8 = 5.5 B/param instead of 16 B/param.
        let dist = mm.static_optim_bytes_dist(&s8);
        let full = mm.static_optim_bytes(&s8);
        let ratio = dist as f64 / full as f64;
        assert!((ratio - 5.5 / 16.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn frozen_model_is_nine_times_cheaper_than_trained() {
        let mm = MemoryModel::new(ModelSpec::llama3_7b());
        let s = strat(1, 2, 2, 1);
        assert_eq!(mm.static_train_bytes(&s), 9 * mm.static_frozen_bytes(&s));
    }

    #[test]
    fn logits_spike_matches_paper_footnote_magnitude() {
        // The paper: vocab 128k x batch 512 x ctx 2048 x 2B ≈ 250 GB for the
        // full batch. One GPU's share with tp=1 and one micro-batch over the
        // whole batch would be catastrophic; check the total magnitude.
        let mm = MemoryModel::new(ModelSpec::llama3_7b());
        let s = strat(1, 1, 1, 1);
        let tokens = 512 * 2048;
        let bytes = mm.logits_bytes(&s, tokens);
        assert!(bytes > 300 * GIB, "logits {bytes}"); // 3B/logit x 134G logits
    }

    #[test]
    fn micro_batching_reduces_active_memory() {
        let mm = MemoryModel::new(ModelSpec::llama3_7b());
        let one = mm.train_active_bytes(&strat(1, 8, 1, 1), 1 << 20);
        let eight = mm.train_active_bytes(&strat(1, 8, 1, 8), 1 << 20);
        assert!(one > 4 * eight, "one {one} eight {eight}");
    }

    #[test]
    fn kv_cache_scales_with_batch_and_len() {
        let mm = MemoryModel::new(ModelSpec::llama3_7b());
        let s = strat(1, 1, 1, 1);
        let a = mm.kv_cache_bytes(&s, 64, 1024);
        let b = mm.kv_cache_bytes(&s, 128, 1024);
        let c = mm.kv_cache_bytes(&s, 64, 2048);
        assert_eq!(b, 2 * a);
        assert_eq!(c, 2 * a);
        // 7B GQA: 64 seq x 1024 tokens x 1024 kv_dim x 2(KV) x 2B x 32 layers = 8 GiB.
        assert_eq!(a, 8 * GIB);
    }

    #[test]
    fn gen_microbatching_beyond_pp_shrinks_kv() {
        let mm = MemoryModel::new(ModelSpec::llama3_7b());
        // pp=1: each extra micro-batch group halves the resident cache.
        let m1 = mm.gen_active_bytes(&strat(1, 8, 1, 1), 256, 2048);
        let m4 = mm.gen_active_bytes(&strat(1, 8, 1, 4), 256, 2048);
        assert!(m4 < m1, "m1 {m1} m4 {m4}");
        // pp=4 with mbs=4: all micro-batches in flight to fill the pipeline
        // — same cache as one big batch (Table 2's generation plan shape).
        let piped = mm.gen_active_bytes(&strat(1, 2, 4, 4), 256, 2048);
        let mono = mm.gen_active_bytes(&strat(1, 2, 4, 1), 256, 2048);
        assert_eq!(piped, mono);
        // DP also shrinks the per-GPU cache.
        let dp2 = mm.gen_active_bytes(&strat(2, 8, 1, 1), 128, 2048);
        assert!(dp2 < m1);
    }

    #[test]
    fn critic_logits_negligible() {
        let mm = MemoryModel::new(ModelSpec::llama3_7b().critic());
        let s = strat(1, 1, 1, 1);
        assert!(mm.logits_bytes(&s, 1 << 20) < GIB);
    }

    #[test]
    fn pipeline_edge_stages_carry_embeddings() {
        let mm = MemoryModel::new(ModelSpec::llama3_7b());
        // With pp = n_layers each stage holds one layer; the last stage adds
        // the LM head plus final norm and is the widest (the head and the
        // input embedding have equal width, the norm breaks the tie).
        let s = strat(1, 1, 32, 1);
        let expected = mm.model().layer_params() + mm.model().head_params() + mm.model().hidden;
        assert_eq!(mm.params_per_gpu(&s), expected);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn params_partition_across_tp_pp(tp_pow in 0u32..4, pp_pow in 0u32..3) {
                let mm = MemoryModel::new(ModelSpec::llama3_7b());
                let tp = 1u32 << tp_pow;
                let pp = 1u32 << pp_pow;
                let s = strat(1, tp, pp, 1);
                let per = mm.params_per_gpu(&s);
                // Shards cover the model with bounded imbalance: the worst
                // GPU holds at least the even share and at most the even
                // share plus one layer and an embedding.
                let even = mm.model().param_count() / u64::from(tp * pp);
                prop_assert!(per >= even / 2);
                let slack = (mm.model().layer_params() + mm.model().embed_params())
                    / u64::from(tp);
                prop_assert!(per <= even + slack + 1);
            }

            #[test]
            fn active_memory_decreases_with_mbs(tokens in 4096u64..2_000_000) {
                let mm = MemoryModel::new(ModelSpec::llama3_7b());
                let one = mm.train_active_bytes(&strat(1, 4, 1, 1), tokens);
                let many = mm.train_active_bytes(&strat(1, 4, 1, 16), tokens);
                prop_assert!(many < one);
            }

            #[test]
            fn static_memory_independent_of_mbs_and_dp(mbs_pow in 0u32..5, dp_pow in 0u32..4) {
                let mm = MemoryModel::new(ModelSpec::llama3_7b());
                let base = mm.static_train_bytes(&strat(1, 2, 2, 1));
                let s = strat(1 << dp_pow, 2, 2, 1 << mbs_pow);
                prop_assert_eq!(mm.static_train_bytes(&s), base);
            }

            #[test]
            fn gen_active_never_below_weights(batch in 1u64..512, len in 128u64..4096) {
                let mm = MemoryModel::new(ModelSpec::llama3_7b());
                let s = strat(1, 4, 2, 4);
                prop_assert!(mm.gen_active_bytes(&s, batch, len) >= mm.weight_bytes_per_gpu(&s));
            }
        }
    }
}
