//! Analytic per-operation cost model.
//!
//! This module plays the role of the paper's GPU kernels: every computation
//! and communication the runtime engine or the profiler "executes" is priced
//! here. The model is a roofline: dense GEMMs are compute-bound, while
//! auto-regressive decoding is bound by streaming the weight shard and the
//! KV cache through HBM — which is exactly the asymmetry that makes ReaL
//! prefer TP (shards the weights) over PP (re-reads them once per
//! micro-batch) for generation, and PP over TP for compute-bound training
//! (§8.2, Fig. 10).
//!
//! All times are in seconds; all `tokens`/`batch` arguments are *per model
//! replica* (i.e. after DP splitting) unless stated otherwise.

use crate::spec::{HeadKind, ModelSpec};
use real_cluster::{ClusterSpec, CommModel};
use serde::{Deserialize, Serialize};

/// Bytes per parameter/activation element (BF16).
pub const DTYPE_BYTES: u64 = 2;
/// Approximate kernel launches per transformer layer, forward pass.
pub const KERNELS_PER_LAYER_FWD: u32 = 12;
/// Approximate kernel launches per transformer layer, backward pass.
pub const KERNELS_PER_LAYER_BWD: u32 = 18;
/// Achievable fraction of HBM bandwidth for small-batch decode kernels.
const DECODE_MEM_EFFICIENCY: f64 = 0.7;
/// Bytes of optimizer state traffic per parameter for one Adam step
/// (read p32/m/v/g32, write p32/m/v/p16).
const ADAM_BYTES_PER_PARAM: f64 = 30.0;

/// The cost model: a model architecture priced on a cluster's hardware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    cluster: ClusterSpec,
    model: ModelSpec,
    comm: CommModel,
}

impl CostModel {
    /// Binds `model` to `cluster`'s hardware.
    pub fn new(cluster: ClusterSpec, model: ModelSpec) -> Self {
        let comm = CommModel::new(&cluster);
        Self {
            cluster,
            model,
            comm,
        }
    }

    /// The underlying model spec.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// The underlying cluster spec.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The communication model shared with the runtime engine.
    pub fn comm(&self) -> &CommModel {
        &self.comm
    }

    // ---- per-layer compute ----

    /// Matmul parameters of one layer (norm vectors excluded — they are
    /// bandwidth-trivial).
    fn layer_mat_params(&self) -> u64 {
        self.model.layer_params() - 2 * self.model.hidden
    }

    /// Forward time of one transformer layer over `tokens` tokens whose
    /// average attention span is `kv_len` (callers pass `seq/2` for causal
    /// prefill/training, the current context length for decode batches).
    pub fn layer_fwd_time(&self, tokens: u64, kv_len: u64, tp: u32, cuda_graph: bool) -> f64 {
        let tp = f64::from(tp.max(1));
        let t = tokens as f64;
        let matmul = 2.0 * t * self.layer_mat_params() as f64 / tp;
        let attn = 4.0 * t * kv_len as f64 * self.model.hidden as f64 / tp;
        let flops = matmul + attn;
        let act_io = t
            * (4.0 * self.model.hidden as f64 + 2.0 * self.model.intermediate as f64)
            * DTYPE_BYTES as f64
            / tp;
        self.cluster.gpu.kernel_time(flops, act_io, true)
            + self.launch_cost(KERNELS_PER_LAYER_FWD, cuda_graph)
    }

    /// Backward time of one transformer layer (2× the forward FLOPs plus
    /// heavier activation traffic). CUDA graphs are not applied to training
    /// in the paper's system, so the launch overhead is always charged.
    pub fn layer_bwd_time(&self, tokens: u64, kv_len: u64, tp: u32) -> f64 {
        let tp_f = f64::from(tp.max(1));
        let t = tokens as f64;
        let matmul = 4.0 * t * self.layer_mat_params() as f64 / tp_f;
        let attn = 8.0 * t * kv_len as f64 * self.model.hidden as f64 / tp_f;
        let act_io = 2.0
            * t
            * (4.0 * self.model.hidden as f64 + 2.0 * self.model.intermediate as f64)
            * DTYPE_BYTES as f64
            / tp_f;
        self.cluster.gpu.kernel_time(matmul + attn, act_io, true)
            + self.launch_cost(KERNELS_PER_LAYER_BWD, false)
    }

    /// One decoding step of one layer for `batch` sequences whose current
    /// context length is `past_len`. Memory-bound: streams the layer's
    /// weight shard plus the KV-cache shard.
    pub fn layer_decode_time(&self, batch: u64, past_len: u64, tp: u32, cuda_graph: bool) -> f64 {
        self.layer_verify_time(batch, 1, past_len, tp, cuda_graph)
    }

    /// One verification forward of one layer: `new_tokens` fresh tokens per
    /// sequence scored against a `past_len` context, for `batch` sequences.
    ///
    /// This is the speculative-decoding primitive: the weight shard and the
    /// KV cache stream through HBM *once* and are amortized over all
    /// `new_tokens` positions, while compute scales with `batch ·
    /// new_tokens`. With `new_tokens = 1` this is exactly
    /// [`layer_decode_time`](Self::layer_decode_time) — plain decode is the
    /// degenerate verify — so a verify forward always costs at least one
    /// plain step and at most `new_tokens` of them.
    pub fn layer_verify_time(
        &self,
        batch: u64,
        new_tokens: u64,
        past_len: u64,
        tp: u32,
        cuda_graph: bool,
    ) -> f64 {
        let tp_f = f64::from(tp.max(1));
        let b = batch as f64;
        let t = b * new_tokens.max(1) as f64;
        let weights_io = self.layer_mat_params() as f64 * DTYPE_BYTES as f64 / tp_f;
        let kv_io =
            b * past_len as f64 * self.model.kv_dim() as f64 * 2.0 * DTYPE_BYTES as f64 / tp_f;
        let flops = t
            * (2.0 * self.layer_mat_params() as f64
                + 4.0 * past_len as f64 * self.model.hidden as f64)
            / tp_f;
        let io_time = (weights_io + kv_io) / (self.cluster.gpu.hbm_bw * DECODE_MEM_EFFICIENCY);
        io_time.max(self.cluster.gpu.compute_time(flops))
            + self.launch_cost(KERNELS_PER_LAYER_FWD, cuda_graph)
    }

    /// Input-embedding lookup for `tokens` tokens (bandwidth-bound gather).
    pub fn embed_time(&self, tokens: u64, tp: u32) -> f64 {
        let io =
            tokens as f64 * self.model.hidden as f64 * DTYPE_BYTES as f64 / f64::from(tp.max(1));
        self.cluster.gpu.kernel_time(0.0, io, true) + self.cluster.gpu.launch_overhead
    }

    /// Output-head time for `tokens` tokens: the vocabulary GEMM plus the
    /// fp32 softmax/log-prob traffic for LM heads (the paper's §8 footnote
    /// calls out this tensor's 250 GB footprint), or a trivial scalar
    /// projection for critic heads. `backward` doubles the GEMM.
    pub fn head_time(&self, tokens: u64, tp: u32, backward: bool) -> f64 {
        let tp_f = f64::from(tp.max(1));
        let t = tokens as f64;
        let (flops, io) = match self.model.head {
            HeadKind::LmHead => {
                let gemm = 2.0 * t * self.model.hidden as f64 * self.model.vocab as f64 / tp_f;
                // Softmax + cross-entropy: ~3 fp32 passes over the logits.
                let io = 3.0 * t * self.model.vocab as f64 * 4.0 / tp_f;
                (gemm, io)
            }
            HeadKind::ScalarHead => (2.0 * t * self.model.hidden as f64 / tp_f, t * 4.0),
        };
        let mult = if backward { 3.0 } else { 1.0 }; // fwd + 2x bwd
        self.cluster.gpu.kernel_time(mult * flops, mult * io, true)
            + self.cluster.gpu.launch_overhead
    }

    /// One Adam step over a `params_shard`-parameter shard (bandwidth-bound
    /// elementwise update).
    pub fn optim_step_time(&self, params_shard: u64) -> f64 {
        self.cluster
            .gpu
            .mem_io_time(params_shard as f64 * ADAM_BYTES_PER_PARAM)
            + self.cluster.gpu.launch_overhead
    }

    // ---- communication ----

    /// One TP all-reduce of layer activations for `tokens` tokens. A
    /// transformer layer forward issues two of these; backward two more.
    pub fn tp_allreduce_time(&self, tokens: u64, tp: u32, within_node: bool) -> f64 {
        let bytes = tokens as f64 * self.model.hidden as f64 * DTYPE_BYTES as f64;
        self.comm.all_reduce(bytes, tp, within_node)
    }

    /// Pipeline-parallel P2P transfer of boundary activations for `tokens`
    /// tokens (per micro-batch, per stage boundary). The activation is
    /// TP-sharded on the wire.
    pub fn pp_p2p_time(&self, tokens: u64, tp: u32, within_node: bool) -> f64 {
        let bytes =
            tokens as f64 * self.model.hidden as f64 * DTYPE_BYTES as f64 / f64::from(tp.max(1));
        self.comm.p2p(bytes, within_node)
    }

    /// ZeRO-3 per-layer weight all-gather (DeepSpeed-Chat's symmetric
    /// strategy pays this on every forward and again on every backward).
    pub fn zero3_allgather_time(&self, world: u32, within_node: bool) -> f64 {
        let bytes = self.layer_mat_params() as f64 * DTYPE_BYTES as f64;
        self.comm.all_gather(bytes, world, within_node)
    }

    /// ZeRO-3 per-layer gradient reduce-scatter during backward.
    pub fn zero3_reduce_scatter_time(&self, world: u32, within_node: bool) -> f64 {
        let bytes = self.layer_mat_params() as f64 * 4.0;
        self.comm.reduce_scatter(bytes, world, within_node)
    }

    // ---- helpers ----

    fn launch_cost(&self, kernels: u32, cuda_graph: bool) -> f64 {
        if cuda_graph {
            // Graph replay still pays one launch for the whole graph; charge
            // a single overhead shared across the layer's kernels.
            self.cluster.gpu.launch_overhead / 8.0
        } else {
            f64::from(kernels) * self.cluster.gpu.launch_overhead
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;

    fn cm(model: ModelSpec) -> CostModel {
        CostModel::new(ClusterSpec::h100(2), model)
    }

    #[test]
    fn prefill_is_compute_bound_decode_is_memory_bound() {
        let c = cm(ModelSpec::llama3_7b());
        // Prefill: time should scale ~linearly with tokens (compute-bound).
        let t1 = c.layer_fwd_time(4096, 1024, 1, true);
        let t2 = c.layer_fwd_time(8192, 1024, 1, true);
        assert!((t2 / t1 - 2.0).abs() < 0.05, "ratio {}", t2 / t1);
        // Decode: doubling the batch at small sizes barely changes the time
        // (weight streaming dominates).
        let d1 = c.layer_decode_time(1, 512, 1, true);
        let d2 = c.layer_decode_time(2, 512, 1, true);
        assert!(d2 / d1 < 1.2, "ratio {}", d2 / d1);
    }

    #[test]
    fn decode_step_full_model_magnitude() {
        // One full decode step of 7B on one H100 ≈ weights/bandwidth ≈ 4-8ms.
        let c = cm(ModelSpec::llama3_7b());
        let per_layer = c.layer_decode_time(1, 1024, 1, true);
        let total = per_layer * 32.0;
        assert!(total > 3e-3 && total < 12e-3, "step {total}");
    }

    #[test]
    fn tp_shards_decode_time() {
        let c = cm(ModelSpec::llama3_7b());
        let d1 = c.layer_decode_time(8, 1024, 1, true);
        let d8 = c.layer_decode_time(8, 1024, 8, true);
        assert!(
            d1 / d8 > 4.0,
            "tp=8 should cut decode time well: {}",
            d1 / d8
        );
    }

    #[test]
    fn bwd_costs_roughly_twice_fwd() {
        let c = cm(ModelSpec::llama3_70b());
        let f = c.layer_fwd_time(16384, 1024, 8, true);
        let b = c.layer_bwd_time(16384, 1024, 8);
        let ratio = b / f;
        assert!(ratio > 1.7 && ratio < 2.5, "bwd/fwd {ratio}");
    }

    #[test]
    fn cuda_graph_reduces_decode_launch_overhead() {
        let c = cm(ModelSpec::llama3_7b());
        let with = c.layer_decode_time(4, 512, 8, true);
        let without = c.layer_decode_time(4, 512, 8, false);
        assert!(without > with);
        // For a small sharded decode, launch overhead is a visible fraction.
        assert!(
            (without - with) / with > 0.2,
            "overhead fraction {}",
            (without - with) / with
        );
    }

    #[test]
    fn lm_head_much_more_expensive_than_scalar() {
        let actor = cm(ModelSpec::llama3_7b());
        let critic = cm(ModelSpec::llama3_7b().critic());
        let a = actor.head_time(65536, 1, false);
        let s = critic.head_time(65536, 1, false);
        assert!(a / s > 100.0, "LM head should dominate: {}", a / s);
    }

    #[test]
    fn tp_comm_grows_with_group_and_crossing_nodes() {
        let c = cm(ModelSpec::llama3_7b());
        let t2 = c.tp_allreduce_time(4096, 2, true);
        let t8 = c.tp_allreduce_time(4096, 8, true);
        let t8x = c.tp_allreduce_time(4096, 8, false);
        assert!(t8 > t2);
        assert!(t8x > t8);
    }

    #[test]
    fn zero3_allgather_is_expensive_inter_node() {
        let c = cm(ModelSpec::llama3_7b());
        // Gathering a full layer's weights across 16 ranks over the fabric
        // costs milliseconds — this is why ZeRO-3 decode crawls without
        // a hybrid engine.
        let t = c.zero3_allgather_time(16, false);
        assert!(t > 1e-3, "allgather {t}");
    }

    #[test]
    fn optimizer_step_scales_with_shard() {
        let c = cm(ModelSpec::llama3_7b());
        let small = c.optim_step_time(1_000_000);
        let large = c.optim_step_time(100_000_000);
        assert!(large > small * 50.0);
    }

    #[test]
    fn long_context_raises_attention_share() {
        let c = cm(ModelSpec::llama3_7b());
        // Same token count, longer attention span => more time.
        let short = c.layer_fwd_time(8192, 1024, 1, true);
        let long = c.layer_fwd_time(8192, 4096, 1, true);
        assert!(long > short * 1.05, "short {short} long {long}");
    }

    #[test]
    fn pp_p2p_cheaper_than_tp_allreduce_for_same_tokens() {
        // The core training trade-off: one boundary P2P moves ~1/tp the bytes
        // of a single TP all-reduce, and a layer needs 4 all-reduces.
        let c = cm(ModelSpec::llama3_70b());
        let p2p = c.pp_p2p_time(8192, 2, false);
        let ar = 4.0 * c.tp_allreduce_time(8192, 8, false);
        assert!(ar > 3.0 * p2p, "ar {ar} p2p {p2p}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn fwd_time_monotone_in_tokens(tokens in 64u64..1_000_000, kv in 64u64..4096) {
                let c = cm(ModelSpec::llama3_7b());
                let t1 = c.layer_fwd_time(tokens, kv, 2, true);
                let t2 = c.layer_fwd_time(tokens * 2, kv, 2, true);
                prop_assert!(t2 > t1);
            }

            #[test]
            fn fwd_time_decreases_with_tp(tokens in 1024u64..1_000_000) {
                let c = cm(ModelSpec::llama3_7b());
                let t1 = c.layer_fwd_time(tokens, 512, 1, true);
                let t8 = c.layer_fwd_time(tokens, 512, 8, true);
                prop_assert!(t8 < t1);
            }

            #[test]
            fn decode_time_monotone_in_context(batch in 1u64..256, past in 128u64..4096) {
                let c = cm(ModelSpec::llama3_7b());
                let short = c.layer_decode_time(batch, past, 4, true);
                let long = c.layer_decode_time(batch, past * 2, 4, true);
                prop_assert!(long >= short);
            }

            #[test]
            fn bwd_always_costs_more_than_fwd(tokens in 256u64..500_000, tp_pow in 0u32..4) {
                let c = cm(ModelSpec::llama3_34b());
                let tp = 1u32 << tp_pow;
                prop_assert!(c.layer_bwd_time(tokens, 512, tp) > c.layer_fwd_time(tokens, 512, tp, true));
            }

            #[test]
            fn all_costs_positive_and_finite(tokens in 1u64..100_000, tp_pow in 0u32..4) {
                let c = cm(ModelSpec::llama3_7b());
                let tp = 1u32 << tp_pow;
                for v in [
                    c.layer_fwd_time(tokens, 256, tp, true),
                    c.layer_bwd_time(tokens, 256, tp),
                    c.layer_decode_time(tokens.min(512), 256, tp, false),
                    c.embed_time(tokens, tp),
                    c.head_time(tokens, tp, true),
                    c.optim_step_time(tokens),
                ] {
                    prop_assert!(v.is_finite() && v > 0.0);
                }
            }
        }
    }
}
