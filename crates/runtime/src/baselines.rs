//! Baseline RLHF systems (§8.1, Appendix D) expressed as execution plans
//! plus engine flags, so Fig. 7's comparison runs inside one engine:
//!
//! - **DeepSpeed-Chat**: symmetric ZeRO-3 DP for every model; the
//!   HybridEngine reshards the actor to intra-node TP for generation.
//! - **OpenRLHF**: three disjoint GPU groups — a vLLM-style generation
//!   group (TP + DP, idle during training), an actor/reference group, and a
//!   critic/reward group, both ZeRO-3.
//! - **NeMo-Aligner**: two disjoint groups — actor generation+training on
//!   one (Megatron 3D, TRT-LLM-style TP generation), critic/reward/
//!   reference on the other.
//! - **veRL (HybridFlow)**: everything colocated on the full cluster with
//!   per-call-type strategies (Megatron 3D training, resharded TP
//!   generation) — the strongest baseline.
//!
//! Constructors return `Err` when a system cannot fit the workload at all
//! (the paper's red-cross OOM markers).

use crate::config::EngineConfig;
use real_cluster::{ClusterSpec, DeviceMesh};
use real_dataflow::{CallAssignment, CallType, DataflowGraph, ExecutionPlan};
use real_estimator::maxmem::call_active_bytes;
use real_model::{MemoryModel, ModelSpec, ParallelStrategy};

/// A baseline's name, plan, and engine configuration.
#[derive(Debug, Clone)]
pub struct BaselineSetup {
    /// System name as used in Fig. 7.
    pub name: &'static str,
    /// The placement/parallelization policy as an execution plan.
    pub plan: ExecutionPlan,
    /// Engine flags (ZeRO-3 model set, etc.).
    pub config: EngineConfig,
}

/// Memory headroom fraction baseline launchers target.
const BUDGET: f64 = 0.95;

fn capacity_budget(cluster: &ClusterSpec) -> u64 {
    (cluster.gpu.mem_capacity as f64 * BUDGET) as u64
}

/// Picks the smallest power-of-two micro-batch count (up to 64) whose
/// active memory fits next to `static_bytes`, with the model's weights
/// ZeRO-sharded into `static_bytes` when `zero3`.
fn fit_mbs(
    mm: &MemoryModel,
    call: CallType,
    base: ParallelStrategy,
    static_bytes: u64,
    budget: u64,
    zero3: bool,
) -> Result<ParallelStrategy, String> {
    let mut mbs = 1u32;
    loop {
        let s = base.with_micro_batches(mbs);
        let active = call_active_bytes(mm, call, &s, zero3);
        if static_bytes + active <= budget {
            return Ok(s);
        }
        if mbs >= 64 {
            return Err(format!(
                "call does not fit: static {} + active {} exceeds budget {}",
                static_bytes, active, budget
            ));
        }
        mbs *= 2;
    }
}

/// Megatron-style 3D strategy on `n` GPUs: TP bounded by the node width,
/// the smallest PP whose static state fits, DP with the remainder. With
/// `dist_optim`, the Adam state shards over DP (Megatron's distributed
/// optimizer — NeMo's backend).
fn megatron_3d(
    cluster: &ClusterSpec,
    model: &ModelSpec,
    n: u32,
    width: u32,
    batch: u64,
    budget: u64,
    dist_optim: bool,
) -> Result<ParallelStrategy, String> {
    let mm = MemoryModel::new(model.clone());
    let mut tp = width.min(cluster.gpus_per_node).min(model.max_tp() as u32);
    while !n.is_multiple_of(tp) {
        tp /= 2;
    }
    let rest = n / tp;
    let mut pp = 1;
    loop {
        if pp > rest || u64::from(pp) > model.n_layers {
            return Err(format!(
                "{} does not fit {n} GPUs with 3D parallelism",
                model.name
            ));
        }
        if rest.is_multiple_of(pp) {
            let dp = rest / pp;
            if u64::from(dp) <= batch.max(1) {
                let s = ParallelStrategy::new(dp, tp, pp, 1).expect("positive degrees");
                let optim = if dist_optim {
                    mm.static_optim_bytes_dist(&s)
                } else {
                    mm.static_optim_bytes(&s)
                };
                if optim + mm.weight_bytes_per_gpu(&s) <= budget {
                    return Ok(s);
                }
            }
        }
        pp *= 2;
    }
}

/// TP + DP generation strategy (vLLM/TRT-LLM style, no pipeline): smallest
/// TP whose weights fit, then the smallest micro-batch count whose in-flight
/// KV cache fits — continuous batching processes the rest in waves.
#[allow(clippy::too_many_arguments)]
fn tp_dp_generation(
    cluster: &ClusterSpec,
    model: &ModelSpec,
    n: u32,
    width: u32,
    batch: u64,
    total_len: u64,
    static_bytes: u64,
    budget: u64,
) -> Result<ParallelStrategy, String> {
    let mm = MemoryModel::new(model.clone());
    let cost = real_model::CostModel::new(cluster.clone(), model.clone());
    let max_tp = width
        .min(cluster.gpus_per_node)
        .min(model.max_tp() as u32)
        .min(n);
    let mut best: Option<(f64, ParallelStrategy)> = None;
    let mut tp = 1;
    while tp <= max_tp {
        if n.is_multiple_of(tp) {
            let dp = n / tp;
            if u64::from(dp) <= batch {
                let mut mbs = 1u32;
                while mbs <= 64 {
                    let s = ParallelStrategy::new(dp, tp, 1, mbs).expect("positive degrees");
                    let batch_r = batch.div_ceil(u64::from(dp));
                    let active = mm.gen_active_bytes(&s, batch_r, total_len);
                    if static_bytes + active <= budget {
                        // Estimated per-token decode cost: weight streaming
                        // plus TP all-reduce latency, times sequential
                        // micro-batch groups.
                        let batch_mb = batch_r.div_ceil(u64::from(mbs)).max(1);
                        let per_layer = cost.layer_decode_time(batch_mb, total_len, tp, true)
                            + 2.0 * cost.tp_allreduce_time(batch_mb, tp, true);
                        let step = per_layer * model.n_layers as f64 * f64::from(mbs);
                        if best.map(|(t, _)| step < t).unwrap_or(true) {
                            best = Some((step, s));
                        }
                        break;
                    }
                    mbs *= 2;
                }
            }
        }
        tp *= 2;
    }
    best.map(|(_, s)| s)
        .ok_or_else(|| format!("{} generation does not fit {n} GPUs with TP+DP", model.name))
}

/// TP + DP inference strategy: the fastest feasible single-forward config
/// by the cost model (per-layer compute plus TP all-reduces), with
/// micro-batching to bound activations. Used by veRL, whose inference runs
/// on serving-style engines rather than the training pipeline.
#[allow(clippy::too_many_arguments)]
fn tp_dp_inference(
    cluster: &ClusterSpec,
    model: &ModelSpec,
    n: u32,
    width: u32,
    batch: u64,
    seq_len: u64,
    static_bytes: u64,
    budget: u64,
) -> Result<ParallelStrategy, String> {
    let mm = MemoryModel::new(model.clone());
    let cost = real_model::CostModel::new(cluster.clone(), model.clone());
    let max_tp = width
        .min(cluster.gpus_per_node)
        .min(model.max_tp() as u32)
        .min(n);
    let mut best: Option<(f64, ParallelStrategy)> = None;
    let mut tp = 1;
    while tp <= max_tp {
        if n.is_multiple_of(tp) {
            let dp = n / tp;
            if u64::from(dp) <= batch {
                let mut mbs = 1u32;
                while mbs <= 64 {
                    let s = ParallelStrategy::new(dp, tp, 1, mbs).expect("positive degrees");
                    let tokens_r = batch.div_ceil(u64::from(dp)) * seq_len;
                    let active = mm.infer_active_bytes(&s, tokens_r);
                    if static_bytes + active <= budget {
                        let tokens_mb = tokens_r.div_ceil(u64::from(mbs));
                        let per_layer = cost.layer_fwd_time(tokens_mb, seq_len / 2, tp, true)
                            + 2.0 * cost.tp_allreduce_time(tokens_mb, tp, true);
                        let total = per_layer * model.n_layers as f64 * f64::from(mbs);
                        if best.map(|(t, _)| total < t).unwrap_or(true) {
                            best = Some((total, s));
                        }
                        break;
                    }
                    mbs *= 2;
                }
            }
        }
        tp *= 2;
    }
    best.map(|(_, s)| s)
        .ok_or_else(|| format!("{} inference does not fit {n} GPUs with TP+DP", model.name))
}

/// Splits the cluster OpenRLHF-style (buddy-aligned): a quarter for the
/// vLLM generation engines, half for the actor/reference group (training is
/// the heaviest job), a quarter for the critic/reward group.
fn quarter_half_quarter(
    cluster: &ClusterSpec,
) -> Result<(DeviceMesh, DeviceMesh, DeviceMesh), String> {
    let n = cluster.n_nodes;
    let mk = |r: Result<DeviceMesh, real_cluster::mesh::MeshError>| r.map_err(|e| e.to_string());
    if n >= 4 {
        Ok((
            mk(DeviceMesh::whole_nodes(cluster, 0, n / 4))?,
            mk(DeviceMesh::whole_nodes(cluster, n / 2, n / 2))?,
            mk(DeviceMesh::whole_nodes(cluster, n / 4, n / 4))?,
        ))
    } else if n == 2 {
        Ok((
            mk(DeviceMesh::sub_node(cluster, 0, 0, 4))?,
            mk(DeviceMesh::whole_nodes(cluster, 1, 1))?,
            mk(DeviceMesh::sub_node(cluster, 0, 4, 4))?,
        ))
    } else {
        Ok((
            mk(DeviceMesh::sub_node(cluster, 0, 0, 2))?,
            mk(DeviceMesh::sub_node(cluster, 0, 4, 4))?,
            mk(DeviceMesh::sub_node(cluster, 0, 2, 2))?,
        ))
    }
}

/// Splits the cluster into two halves.
fn halves(cluster: &ClusterSpec) -> Result<(DeviceMesh, DeviceMesh), String> {
    let n = cluster.n_nodes;
    let mk = |r: Result<DeviceMesh, real_cluster::mesh::MeshError>| r.map_err(|e| e.to_string());
    if n >= 2 {
        Ok((
            mk(DeviceMesh::whole_nodes(cluster, 0, n / 2))?,
            mk(DeviceMesh::whole_nodes(cluster, n / 2, n / 2))?,
        ))
    } else {
        Ok((
            mk(DeviceMesh::sub_node(cluster, 0, 0, 4))?,
            mk(DeviceMesh::sub_node(cluster, 0, 4, 4))?,
        ))
    }
}

/// ZeRO-3 static bytes per GPU of the models `hosted` selects, each
/// sharded over `world` GPUs.
fn zero3_static(graph: &DataflowGraph, world: u32, hosted: impl Fn(&str) -> bool) -> u64 {
    graph
        .model_names()
        .into_iter()
        .filter(|m| hosted(m))
        .map(|m| {
            let model = &graph.call(graph.calls_of_model(m)[0]).model;
            MemoryModel::new(model.clone()).zero3_static_bytes(world, graph.is_trainable(m))
        })
        .sum()
}

/// Which group a model belongs to in the asymmetric baselines.
fn is_actor_family(model_name: &str) -> bool {
    model_name == "actor" || model_name == "reference"
}

/// DeepSpeed-Chat: symmetric ZeRO-3 everywhere + HybridEngine TP for
/// generation.
pub fn dschat(
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    base: &EngineConfig,
) -> Result<BaselineSetup, String> {
    let mesh = DeviceMesh::full(cluster);
    let n = mesh.n_gpus();
    let budget = capacity_budget(cluster);
    let mut config = base.clone();
    // DeepSpeed-Chat generates through the HF decoding loop, which is not
    // CUDA-graph captured (unlike the vLLM/TRT-LLM backends of the other
    // systems) — a large per-step launch overhead during decoding.
    config.cuda_graph = false;
    for m in graph.model_names() {
        // DeepSpeed-Chat ZeRO-3-shards every model, frozen ones included.
        config.zero3_models.insert(m.to_string());
    }
    let zero_static = zero3_static(graph, n, |_| true);

    let mut assignments = Vec::with_capacity(graph.n_calls());
    for (_, def) in graph.iter() {
        let mm = MemoryModel::new(def.model.clone());
        let strategy = match def.call_type {
            CallType::Generate {
                batch,
                prompt_len,
                gen_len,
            } => {
                // HybridEngine: reshard ZeRO partitions to intra-node TP.
                tp_dp_generation(
                    cluster,
                    &def.model,
                    n,
                    cluster.gpus_per_node,
                    batch,
                    prompt_len + gen_len,
                    zero_static,
                    budget,
                )?
            }
            // Pure ZeRO-3 DP for training and inference.
            ct => {
                if u64::from(n) > ct.batch() {
                    return Err(format!(
                        "DeepSpeed-Chat pure DP needs batch >= {n}, got {}",
                        ct.batch()
                    ));
                }
                let base_s = ParallelStrategy::new(n, 1, 1, 1).expect("positive degrees");
                fit_mbs(&mm, ct, base_s, zero_static, budget, true)?
            }
        };
        assignments.push(CallAssignment::new(mesh, strategy).map_err(|e| e.to_string())?);
    }
    let plan = ExecutionPlan::new(graph, cluster, assignments).map_err(|e| e.to_string())?;
    Ok(BaselineSetup {
        name: "DeepSpeed-Chat",
        plan,
        config,
    })
}

/// OpenRLHF: generation group + actor/reference group + critic/reward
/// group, ZeRO-3 training backends.
pub fn openrlhf(
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    base: &EngineConfig,
) -> Result<BaselineSetup, String> {
    let (gen_mesh, actor_mesh, critic_mesh) = quarter_half_quarter(cluster)?;
    let budget = capacity_budget(cluster);
    let mut config = base.clone();
    for m in graph.model_names() {
        // DeepSpeed backends ZeRO-shard the frozen models as well.
        config.zero3_models.insert(m.to_string());
    }
    // Static per GPU of each group: every model hosted there, ZeRO-sharded.
    let group_static = |mesh: &DeviceMesh, actor_family: bool| {
        zero3_static(graph, mesh.n_gpus(), |m| is_actor_family(m) == actor_family)
    };

    let mut assignments = Vec::with_capacity(graph.n_calls());
    for (_, def) in graph.iter() {
        let mm = MemoryModel::new(def.model.clone());
        let (mesh, zero_static) = match def.call_type {
            CallType::Generate { .. } => (gen_mesh, 0u64),
            _ if is_actor_family(&def.model_name) => (actor_mesh, group_static(&actor_mesh, true)),
            _ => (critic_mesh, group_static(&critic_mesh, false)),
        };
        let n = mesh.n_gpus();
        let strategy = match def.call_type {
            CallType::Generate {
                batch,
                prompt_len,
                gen_len,
            } => tp_dp_generation(
                cluster,
                &def.model,
                n,
                mesh.gpu_width(),
                batch,
                prompt_len + gen_len,
                0,
                budget,
            )?,
            ct => {
                if u64::from(n) > ct.batch() {
                    return Err(format!(
                        "OpenRLHF pure DP needs batch >= {n}, got {}",
                        ct.batch()
                    ));
                }
                let base_s = ParallelStrategy::new(n, 1, 1, 1).expect("positive degrees");
                fit_mbs(&mm, ct, base_s, zero_static, budget, true)?
            }
        };
        assignments.push(CallAssignment::new(mesh, strategy).map_err(|e| e.to_string())?);
    }
    let plan = ExecutionPlan::new(graph, cluster, assignments).map_err(|e| e.to_string())?;
    Ok(BaselineSetup {
        name: "OpenRLHF",
        plan,
        config,
    })
}

/// NeMo-Aligner: actor generation + training on one half (Megatron 3D),
/// everything else on the other half.
pub fn nemo_aligner(
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    base: &EngineConfig,
) -> Result<BaselineSetup, String> {
    let (actor_mesh, rest_mesh) = halves(cluster)?;
    let budget = capacity_budget(cluster);

    let mut assignments = Vec::with_capacity(graph.n_calls());
    for (_, def) in graph.iter() {
        let mm = MemoryModel::new(def.model.clone());
        let mesh = if is_actor_family(&def.model_name)
            || matches!(def.call_type, CallType::Generate { .. })
        {
            actor_mesh
        } else {
            rest_mesh
        };
        let n = mesh.n_gpus();
        // Static share on the actor mesh: the trainable actor's 3D state.
        let static_bytes = if mesh == actor_mesh && graph.is_trainable("actor") {
            let actor_model = &graph.call(graph.calls_of_model("actor")[0]).model;
            let s3d = megatron_3d(
                cluster,
                actor_model,
                n,
                mesh.gpu_width(),
                def.call_type.batch(),
                budget,
                true,
            )?;
            MemoryModel::new(actor_model.clone()).static_optim_bytes_dist(&s3d)
        } else {
            0
        };
        let strategy = match def.call_type {
            CallType::Generate {
                batch,
                prompt_len,
                gen_len,
            } => tp_dp_generation(
                cluster,
                &def.model,
                n,
                mesh.gpu_width(),
                batch,
                prompt_len + gen_len,
                static_bytes,
                budget,
            )?,
            ct => {
                let s3d = megatron_3d(
                    cluster,
                    &def.model,
                    n,
                    mesh.gpu_width(),
                    ct.batch(),
                    budget,
                    true,
                )?;
                fit_mbs(&mm, ct, s3d, static_bytes, budget, false)?
            }
        };
        assignments.push(CallAssignment::new(mesh, strategy).map_err(|e| e.to_string())?);
    }
    let plan = ExecutionPlan::new(graph, cluster, assignments).map_err(|e| e.to_string())?;
    let mut config = base.clone();
    for m in graph.model_names() {
        if graph.is_trainable(m) {
            config.dist_optim_models.insert(m.to_string());
        }
    }
    Ok(BaselineSetup {
        name: "NeMo-Aligner",
        plan,
        config,
    })
}

/// veRL (HybridFlow): colocated full-cluster placement with per-call-type
/// strategies — Megatron 3D training, resharded TP+DP generation.
pub fn verl(
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    base: &EngineConfig,
) -> Result<BaselineSetup, String> {
    let mesh = DeviceMesh::full(cluster);
    let n = mesh.n_gpus();
    let budget = capacity_budget(cluster);
    // Colocated static: every trainable model's 3D optimizer state must fit
    // *together*, so each model gets a budget share proportional to its
    // parameter count, with headroom left for activations.
    let trainable: Vec<&str> = graph
        .model_names()
        .into_iter()
        .filter(|m| graph.is_trainable(m))
        .collect();
    let total_params: u64 = trainable
        .iter()
        .map(|m| graph.call(graph.calls_of_model(m)[0]).model.param_count())
        .sum();
    let mut static_total = 0u64;
    let mut train_strategies: std::collections::HashMap<String, ParallelStrategy> =
        std::collections::HashMap::new();
    for m in &trainable {
        let model = &graph.call(graph.calls_of_model(m)[0]).model;
        let batch = graph
            .calls_of_model(m)
            .iter()
            .map(|&c| graph.call(c).call_type.batch())
            .max()
            .unwrap_or(1);
        let share =
            (budget as f64 * 0.7 * model.param_count() as f64 / total_params.max(1) as f64) as u64;
        let s = megatron_3d(cluster, model, n, mesh.gpu_width(), batch, share, false)?;
        static_total += MemoryModel::new(model.clone()).static_optim_bytes(&s);
        train_strategies.insert((*m).to_string(), s);
    }

    let mut assignments = Vec::with_capacity(graph.n_calls());
    for (_, def) in graph.iter() {
        let mm = MemoryModel::new(def.model.clone());
        let strategy = match def.call_type {
            CallType::Generate {
                batch,
                prompt_len,
                gen_len,
            } => tp_dp_generation(
                cluster,
                &def.model,
                n,
                mesh.gpu_width(),
                batch,
                prompt_len + gen_len,
                static_total,
                budget,
            )?,
            CallType::Inference { batch, seq_len } => tp_dp_inference(
                cluster,
                &def.model,
                n,
                mesh.gpu_width(),
                batch,
                seq_len,
                static_total,
                budget,
            )?,
            ct => {
                // Training uses the budget-shared Megatron 3D strategy.
                let s3d = match train_strategies.get(&def.model_name) {
                    Some(s) => *s,
                    None => megatron_3d(
                        cluster,
                        &def.model,
                        n,
                        mesh.gpu_width(),
                        ct.batch(),
                        budget,
                        false,
                    )?,
                };
                fit_mbs(&mm, ct, s3d, static_total, budget, false)?
            }
        };
        assignments.push(CallAssignment::new(mesh, strategy).map_err(|e| e.to_string())?);
    }
    let plan = ExecutionPlan::new(graph, cluster, assignments).map_err(|e| e.to_string())?;
    Ok(BaselineSetup {
        name: "veRL",
        plan,
        config: base.clone(),
    })
}

/// All four baselines, each possibly failing with an OOM explanation.
pub fn all(
    cluster: &ClusterSpec,
    graph: &DataflowGraph,
    base: &EngineConfig,
) -> Vec<(&'static str, Result<BaselineSetup, String>)> {
    vec![
        ("DeepSpeed-Chat", dschat(cluster, graph, base)),
        ("OpenRLHF", openrlhf(cluster, graph, base)),
        ("NeMo-Aligner", nemo_aligner(cluster, graph, base)),
        ("veRL", verl(cluster, graph, base)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::RuntimeEngine;
    use real_dataflow::algo::{ppo, RlhfConfig};

    fn setup(nodes: u32, batch: u64) -> (ClusterSpec, DataflowGraph) {
        let cluster = ClusterSpec::h100(nodes);
        let actor = ModelSpec::llama3_7b();
        let graph = ppo(&actor, &actor.critic(), &RlhfConfig::instruct_gpt(batch));
        (cluster, graph)
    }

    #[test]
    fn all_baselines_construct_for_7b_on_two_nodes() {
        let (cluster, graph) = setup(2, 512);
        for (name, setup) in all(&cluster, &graph, &EngineConfig::deterministic()) {
            let setup = setup.unwrap_or_else(|e| panic!("{name}: {e}"));
            let engine = RuntimeEngine::new(cluster.clone(), graph.clone(), setup.config.clone());
            let report = engine
                .run(&setup.plan, 1)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(report.iter_time > 0.0, "{name}");
        }
    }

    #[test]
    fn dschat_uses_zero3_and_tp_generation() {
        let (cluster, graph) = setup(1, 128);
        let s = dschat(&cluster, &graph, &EngineConfig::deterministic()).unwrap();
        assert!(s.config.zero3_models.contains("actor"));
        assert!(s.config.zero3_models.contains("critic"));
        // HybridEngine generation is TP+DP (no pipeline), with the smallest
        // TP that fits — a 7B on one node fits at tp=1 (weight gather only).
        let gen = s.plan.assignment(graph.find("actor_gen").unwrap());
        assert_eq!(gen.strategy.pp(), 1);
        assert_eq!(gen.strategy.tp() * gen.strategy.dp(), 8);
        let train = s.plan.assignment(graph.find("actor_train").unwrap());
        assert_eq!(train.strategy.tp(), 1, "ZeRO-3 is pure DP");
        assert_eq!(train.strategy.dp(), 8);
    }

    #[test]
    fn openrlhf_groups_are_disjoint() {
        let (cluster, graph) = setup(2, 512);
        let s = openrlhf(&cluster, &graph, &EngineConfig::deterministic()).unwrap();
        let gen = s.plan.assignment(graph.find("actor_gen").unwrap()).mesh;
        let train = s.plan.assignment(graph.find("actor_train").unwrap()).mesh;
        let critic = s.plan.assignment(graph.find("critic_train").unwrap()).mesh;
        assert!(!gen.overlaps(&train));
        assert!(!gen.overlaps(&critic));
        assert!(!train.overlaps(&critic));
    }

    #[test]
    fn nemo_two_groups_actor_colocated() {
        let (cluster, graph) = setup(2, 512);
        let s = nemo_aligner(&cluster, &graph, &EngineConfig::deterministic()).unwrap();
        let gen = s.plan.assignment(graph.find("actor_gen").unwrap()).mesh;
        let train = s.plan.assignment(graph.find("actor_train").unwrap()).mesh;
        let reward = s.plan.assignment(graph.find("reward_inf").unwrap()).mesh;
        assert_eq!(gen, train, "actor gen and train share a group");
        assert!(!gen.overlaps(&reward));
    }

    #[test]
    fn verl_colocates_everything() {
        let (cluster, graph) = setup(2, 512);
        let s = verl(&cluster, &graph, &EngineConfig::deterministic()).unwrap();
        for a in s.plan.assignments() {
            assert_eq!(a.mesh.n_gpus(), 16);
        }
        assert!(s.config.zero3_models.is_empty());
    }

    #[test]
    fn verl_is_fastest_baseline_for_7b() {
        // The paper's ordering: veRL (concurrent work, most flexible)
        // outperforms the three earlier systems.
        let (cluster, graph) = setup(2, 512);
        let mut times = std::collections::HashMap::new();
        for (name, setup) in all(&cluster, &graph, &EngineConfig::deterministic()) {
            let setup = setup.unwrap();
            let engine = RuntimeEngine::new(cluster.clone(), graph.clone(), setup.config.clone());
            let t = engine.run(&setup.plan, 2).unwrap().iter_time;
            times.insert(name, t);
        }
        let verl_t = times["veRL"];
        for (name, t) in &times {
            assert!(verl_t <= *t * 1.05, "veRL {verl_t} vs {name} {t}");
        }
    }

    #[test]
    fn dschat_errors_when_batch_smaller_than_world() {
        let (cluster, graph) = setup(2, 8); // 16 GPUs, batch 8
        assert!(dschat(&cluster, &graph, &EngineConfig::deterministic()).is_err());
    }
}
