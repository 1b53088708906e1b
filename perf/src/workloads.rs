//! The four workloads. Each is one closed loop with a single client: the
//! next op starts when the previous one returns, as when a user re-invokes
//! the CLI. Every op is independent (a fresh search memo, no warm-up),
//! because every CLI invocation pays the same cost.

use crate::trace::{Lane, Recorder};
use real_cluster::{ClusterSpec, DeviceMesh};
use real_core::{Experiment, ExperimentReport};
use real_dataflow::algo::RlhfConfig;
use real_dataflow::ExecutionPlan;
use real_estimator::{CostMemo, Estimator, PlanPricer};
use real_model::ModelSpec;
use real_runtime::EngineConfig;
use real_sched::{GraphSet, TenantSpec};
use real_search::{search, McmcConfig, SearchResult, SearchSpace};
use real_serve::{serve, ArrivalSpec, TemplateSpec, WorkloadSpec};
use real_sim::FaultPlan;
use real_util::DeterministicRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The fixture set-up runs at least `SETUP_REPEATS` times and until
/// `SETUP_SECONDS` have passed (so millisecond set-ups get enough samples),
/// at most `SETUP_MAX_REPEATS` times; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
const SETUP_SECONDS: f64 = 0.5;
const SETUP_MAX_REPEATS: usize = 1000;
/// MCMC budget of every planning search, as `real plan --steps`.
const SEARCH_STEPS: u64 = 20_000;
/// Search seed of every planning search: the CLI's default `--seed`. The
/// polish after the MCMC chain runs 2–4 sweeps over the option space
/// depending on the search seed, which moves a 1024-GPU search between
/// 2.5 s and 5 s; with search seeds drawn from the workload seed, run
/// medians moved by a third between seeds, and with one seed per op they
/// moved with how many ops fit in the budget. So the plans are part of the
/// workloads' definition, and the workload seed varies the runtime jitter,
/// the fault schedules and the arrival streams.
const SEARCH_SEED: u64 = 1;
/// Random plans priced from scratch in the layer sweep.
const PRICED_PLANS: usize = 200;
/// Kernel-trace capacity of `real profile`.
const PROFILE_TRACE_CAPACITY: usize = 500_000;
/// serve-day's stream: exactly this many arrivals, at `BASE_RATE` per hour
/// with a `BURST_RATE` burst for the first `BURST_SECS` of every hour.
const ARRIVALS: usize = 8_000;
const BASE_RATE: f64 = 250.0;
const BURST_RATE: f64 = 6.0 * BASE_RATE;
const BURST_SECS: f64 = 300.0;

pub struct Config {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Config {
    fn op_seed(&self, op: usize) -> u64 {
        DeterministicRng::from_seed(self.seed)
            .derive(self.workload)
            .derive_index(op as u64)
            .next_u64()
    }
}

/// What one op hands back besides its time.
pub struct OpResult {
    /// Hash of the op's outputs; the run digest folds the first few.
    fingerprint: u64,
    /// Output quality, by `registry::QUALITY` name.
    quality: Vec<(&'static str, f64)>,
}

impl OpResult {
    fn new(fingerprint: u64) -> Self {
        Self {
            fingerprint,
            quality: Vec::new(),
        }
    }

    fn quality(mut self, name: &'static str, value: f64) -> Self {
        self.quality.push((name, value));
        self
    }
}

/// Everything a workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Op times of the untraced pass (end-to-end metrics come from these).
    pub op_s: Vec<f64>,
    /// Op times of the traced pass, ops `0..n` again.
    pub traced_op_s: Vec<f64>,
    pub attempted: usize,
    pub failures: Vec<String>,
    pub digest: Fnv,
    pub digest_ops: usize,
    /// VmHWM after the first op of the untraced pass.
    pub peak_rss_mb: f64,
    /// Output quality of the digest's ops, by `registry::QUALITY` name.
    pub quality: BTreeMap<&'static str, Vec<f64>>,
}

/// 64-bit FNV-1a, for output digests that must repeat across runs and
/// toolchains.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn run(cfg: &Config, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    rec.set_enabled(cfg.trace);
    let result = match cfg.workload {
        "plan-1024" => plan_1024(cfg, rec, &mut out),
        "run-1024" => run_1024(cfg, rec, &mut out),
        "profile-128" => profile_128(cfg, rec, &mut out),
        "serve-day" => serve_day(cfg, rec, &mut out),
        other => Err(format!("unknown workload `{other}`")),
    };
    if let Err(e) = result {
        out.failures.push(e);
    }
    out
}

/// PPO with a LLaMA-3 70B actor and 7B critic, quick profile.
fn ppo_70b(nodes: u32, batch: u64) -> Experiment {
    Experiment::ppo(
        ClusterSpec::h100(nodes),
        ModelSpec::llama3_70b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(batch),
    )
    .with_quick_profile()
}

fn with_engine_seed(exp: &Experiment, seed: u64) -> Experiment {
    exp.clone().with_engine_config(EngineConfig {
        seed,
        ..exp.engine_config().clone()
    })
}

/// The planning set-up every CLI invocation pays: profile, enumerate
/// meshes, build the pruned option space.
fn prepare(rec: &mut Recorder, exp: &Experiment) -> Result<(Estimator, SearchSpace), String> {
    let (est, _) = rec.span("profiler.prepare", |_| exp.prepare());
    let meshes = rec.span("cluster.enumerate", |_| {
        DeviceMesh::enumerate(exp.cluster())
    });
    rec.sample("cluster.meshes", meshes.len() as f64);
    let space = rec
        .span("search.space_build", |_| exp.try_search_space())
        .map_err(|e| e.to_string())?;
    rec.sample("search.space_options", space.total_options() as f64);
    Ok((est, space))
}

/// Runs the fixture set-up repeatedly (see [`SETUP_REPEATS`]), timing
/// each, and keeps the last result.
fn set_up<T>(
    rec: &mut Recorder,
    out: &mut Outcome,
    mut f: impl FnMut(&mut Recorder) -> Result<T, String>,
) -> Result<T, String> {
    let first = Instant::now();
    loop {
        let start = Instant::now();
        let result = f(rec)?;
        out.setup_s.push(start.elapsed().as_secs_f64());
        let n = out.setup_s.len();
        let enough = n >= SETUP_REPEATS && first.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if enough || n >= SETUP_MAX_REPEATS {
            return Ok(result);
        }
    }
}

fn mcmc(rec: &mut Recorder, est: &Estimator, space: &SearchSpace, seed: u64) -> SearchResult {
    let cfg = McmcConfig {
        max_steps: SEARCH_STEPS,
        // The step budget always binds, so results are deterministic.
        time_limit: Duration::from_secs(3600),
        seed,
        ..McmcConfig::default()
    };
    let (r, secs) = rec.span_secs("search.mcmc", |_| search(est, space, &cfg));
    rec.sample("search.steps_per_s", r.steps as f64 / secs);
    rec.sample("search.accept_frac", r.acceptance_rate());
    rec.sample("estimator.memo_hit_frac", r.memo.hit_rate());
    rec.sample("estimator.memo_entries", r.memo.entries as f64);
    r
}

fn execute(
    rec: &mut Recorder,
    exp: &Experiment,
    plan: &ExecutionPlan,
    iterations: usize,
) -> Result<ExperimentReport, String> {
    let (report, secs) = rec.span_secs("runtime.run", |_| exp.run(plan, iterations));
    let report = report.map_err(|e| e.to_string())?;
    let run = &report.run;
    rec.sample("runtime.calls_per_s", run.timings.len() as f64 / secs);
    rec.sample("runtime.retries", run.faults.retries as f64);
    if exp.engine_config().trace_capacity > 0 {
        let events = run.trace.events().len() as f64 + run.trace.dropped() as f64;
        rec.sample("sim.kernel_events", events);
        rec.sample("sim.kernel_events_per_s", events / secs);
    }
    let expected = exp.graph().n_calls() * iterations;
    let ok = run.iterations == iterations
        && run.timings.len() == expected
        && run.iter_time.is_finite()
        && run.iter_time > 0.0;
    if !ok {
        return Err(format!(
            "run reported {} iterations, {} call timings (want {expected}), iter_time {}",
            run.iterations,
            run.timings.len(),
            run.iter_time
        ));
    }
    Ok(report)
}

fn gap(rec: &mut Recorder, search: &SearchResult, report: &ExperimentReport) {
    let simulated = report.run.iter_time;
    rec.sample(
        "estimator.gap_frac",
        (search.best_time_cost - simulated).abs() / simulated,
    );
}

/// The `real profile` analysis of a traced run; checks the stream
/// invariants and that the phase shares sum to one.
fn analyse(
    rec: &mut Recorder,
    exp: &Experiment,
    report: &ExperimentReport,
    est: &Estimator,
) -> Result<Fnv, String> {
    let stream = rec.span("obs.event_stream", |_| exp.event_stream(report));
    rec.sample("obs.stream_events", stream.events().len() as f64);
    let profile = rec.span("obs.profile", |_| exp.profile_report(report, est, 10));
    let (checked, _) = rec.untimed(|_| {
        stream.check_invariants()?;
        let shares: f64 = profile.phases.iter().map(|p| p.share).sum();
        if (shares - 1.0).abs() > 1e-9 {
            return Err(format!("phase shares sum to {shares}, not 1"));
        }
        Ok(profile
            .phases
            .iter()
            .fold(Fnv::default().f64(profile.makespan), |h, p| {
                h.f64(p.seconds)
            }))
    });
    checked
}

/// Runs the untraced pass for the whole budget (or three quarters of it
/// when tracing), then the traced pass over ops `0..` for the last quarter.
/// At least `min_ops` untraced ops run; the digest covers exactly those.
fn op_loop(
    cfg: &Config,
    rec: &mut Recorder,
    out: &mut Outcome,
    min_ops: usize,
    mut op: impl FnMut(&mut Recorder, usize) -> Result<OpResult, String>,
) {
    let budget = if cfg.trace { 0.75 } else { 1.0 } * cfg.seconds;
    rec.set_enabled(false);
    let done = pass(rec, out, budget, min_ops, &mut op);
    out.op_s = done.iter().map(|d| d.1).collect();
    out.digest_ops = min_ops;
    out.digest = done
        .iter()
        .filter(|d| d.0 < min_ops)
        .fold(Fnv::default(), |h, d| h.u64(d.0 as u64).u64(d.2));
    if cfg.trace {
        rec.set_enabled(true);
        let done = pass(rec, out, cfg.seconds - budget, 1, &mut op);
        out.traced_op_s = done.iter().map(|d| d.1).collect();
    }
}

/// One closed-loop pass: ops `0, 1, ...` until `budget` seconds have
/// passed and at least `min_ops` ran. Returns (op, seconds, fingerprint)
/// of every op that succeeded.
fn pass(
    rec: &mut Recorder,
    out: &mut Outcome,
    budget: f64,
    min_ops: usize,
    op: &mut impl FnMut(&mut Recorder, usize) -> Result<OpResult, String>,
) -> Vec<(usize, f64, u64)> {
    let start = Instant::now();
    let traced = rec.enabled();
    let mut done = Vec::new();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < budget {
        rec.set_lane(Lane::Op(i));
        rec.take_untimed();
        let begin = Instant::now();
        let result = rec.span("op", |rec| op(rec, i));
        let secs = begin.elapsed().as_secs_f64() - rec.take_untimed();
        out.attempted += 1;
        if i == 0 && !traced {
            // Memory of one CLI-equivalent call (set-up included); later
            // ops would only add allocator growth, and how many of them fit
            // in the budget depends on speed.
            out.peak_rss_mb = peak_rss_mb();
        }
        match result {
            Ok(r) => {
                done.push((i, secs, r.fingerprint));
                // Quality over the digest's ops only, which every run of a
                // seed executes, so it does not depend on how many ops fit.
                if !traced && i < min_ops {
                    for (name, value) in r.quality {
                        out.quality.entry(name).or_default().push(value);
                    }
                }
            }
            Err(e) => out.failures.push(format!("op {i}: {e}")),
        }
        i += 1;
    }
    done
}

/// VmHWM of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn plan_1024(cfg: &Config, rec: &mut Recorder, out: &mut Outcome) -> Result<(), String> {
    let exp = ppo_70b(128, 8192);
    let (est, space) = set_up(rec, out, |rec| prepare(rec, &exp))?;
    op_loop(cfg, rec, out, 2, |rec, i| {
        let r = mcmc(rec, &est, &space, SEARCH_SEED);
        let (checked, _) = rec.untimed(|_| {
            if !r.feasible || !est.mem_ok(&r.best_plan) {
                return Err("best plan does not fit device memory".to_string());
            }
            let scratch = est.time_cost(&r.best_plan);
            if scratch.to_bits() != r.best_time_cost.to_bits() {
                return Err(format!(
                    "memoized TimeCost {} != from-scratch {scratch}",
                    r.best_time_cost
                ));
            }
            serde_json::to_string(&r.best_plan).map_err(|e| e.to_string())
        });
        let plan_json = checked?;
        let report = execute(
            rec,
            &with_engine_seed(&exp, cfg.op_seed(i)),
            &r.best_plan,
            2,
        )?;
        gap(rec, &r, &report);
        let fingerprint = Fnv::default()
            .bytes(plan_json.as_bytes())
            .f64(r.best_time_cost)
            .f64(report.tokens_per_sec);
        Ok(OpResult::new(fingerprint.finish()).quality("sim_tokens_per_s", report.tokens_per_sec))
    });
    sweep(cfg, rec, &exp)
}

/// Set-up shared by run-1024 and profile-128: planning plus one fixture
/// search, so the fixed plan carries real reallocations and transfers.
fn fixture(
    rec: &mut Recorder,
    exp: &Experiment,
) -> Result<(Estimator, ExecutionPlan, f64), String> {
    let (est, space) = prepare(rec, exp)?;
    let r = mcmc(rec, &est, &space, SEARCH_SEED);
    if !r.feasible {
        return Err("fixture search found no memory-feasible plan".into());
    }
    Ok((est, r.best_plan, r.best_time_cost))
}

fn run_1024(cfg: &Config, rec: &mut Recorder, out: &mut Outcome) -> Result<(), String> {
    let exp = ppo_70b(128, 8192);
    let (_, plan, nominal_iter) = set_up(rec, out, |rec| fixture(rec, &exp))?;
    let gpus = exp.cluster().total_gpus() as usize;
    let gpus_per_node = exp.cluster().gpus_per_node as usize;
    op_loop(cfg, rec, out, 8, |rec, i| {
        let seed = cfg.op_seed(i);
        let mut e = with_engine_seed(&exp, seed);
        // Every 4th op runs under a random fault schedule, so p50 measures
        // the clean path and the tail the resilient-dispatch path.
        if i % 4 == 3 {
            e = e.with_fault_plan(FaultPlan::random(
                seed,
                gpus,
                gpus_per_node,
                5.0 * nominal_iter,
                2.0,
            ));
        }
        let report = execute(rec, &e, &plan, 5)?;
        let run = &report.run;
        let fingerprint = Fnv::default()
            .f64(run.iter_time)
            .f64(run.total_time)
            .u64(run.faults.retries as u64);
        Ok(OpResult::new(fingerprint.finish()).quality("sim_tokens_per_s", report.tokens_per_sec))
    });
    sweep(cfg, rec, &exp)
}

fn profile_128(cfg: &Config, rec: &mut Recorder, out: &mut Outcome) -> Result<(), String> {
    let exp = ppo_70b(16, 4096).with_engine_config(EngineConfig {
        trace_capacity: PROFILE_TRACE_CAPACITY,
        ..EngineConfig::default()
    });
    let (est, plan, _) = set_up(rec, out, |rec| fixture(rec, &exp))?;
    op_loop(cfg, rec, out, 8, |rec, i| {
        let e = with_engine_seed(&exp, cfg.op_seed(i));
        let report = execute(rec, &e, &plan, 2)?;
        let digest = analyse(rec, &e, &report, &est)?;
        Ok(OpResult::new(digest.f64(report.run.iter_time).finish())
            .quality("sim_tokens_per_s", report.tokens_per_sec))
    });
    sweep(cfg, rec, &exp)
}

/// A 7B tenant template of serve-day.
fn tenant(name: &str, algo: &str, priority: f64, batch: u64, iterations: usize) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        id: None,
        priority: Some(priority),
        algo: Some(algo.into()),
        actor: Some("7b".into()),
        critic: None,
        batch: Some(batch),
        graph: None,
        iterations: Some(iterations),
        faults: None,
        elastic: None,
    }
}

/// The serve-day stream for one op: exactly [`ARRIVALS`] Poisson arrivals
/// whose rate jumps 6x for the first five minutes of every hour (about one
/// simulated day), replayed through `ArrivalSpec::Trace`.
fn day_of_arrivals(seed: u64) -> WorkloadSpec {
    let mut rng = DeterministicRng::from_seed(seed).derive("arrivals");
    let mut t = 0.0f64;
    let mut times = Vec::with_capacity(ARRIVALS);
    while times.len() < ARRIVALS {
        let rate = if t % 3600.0 < BURST_SECS {
            BURST_RATE
        } else {
            BASE_RATE
        };
        t += -(1.0 - rng.uniform()).ln() * 3600.0 / rate;
        times.push(t);
    }
    let weighted = |tenant, weight| TemplateSpec {
        tenant,
        weight: Some(weight),
    };
    WorkloadSpec {
        nodes: 4,
        seed: Some(seed),
        horizon_secs: Some(t),
        arrivals: ArrivalSpec::Trace {
            times_secs: times,
            templates: None,
        },
        templates: vec![
            weighted(tenant("dpo", "dpo", 1.0, 64, 2), 3.0),
            weighted(tenant("ppo", "ppo", 1.0, 64, 2), 1.0),
            weighted(tenant("burst", "dpo", 4.0, 32, 1), 1.0),
        ],
        admission: None,
    }
}

fn serve_day(cfg: &Config, rec: &mut Recorder, out: &mut Outcome) -> Result<(), String> {
    let graphs = GraphSet::new();
    // Set-up is making an op's input, a day of arrivals; each op makes its
    // own outside its time.
    set_up(rec, out, |_| Ok(day_of_arrivals(cfg.op_seed(0))))?;
    op_loop(cfg, rec, out, 2, |rec, i| {
        let (spec, _) = rec.untimed(|_| day_of_arrivals(cfg.op_seed(i)));
        let (report, secs) = rec.span_secs("serve.serve", |_| serve(&spec, &graphs));
        let r = report.map_err(|e| e.to_string())?;
        if r.arrivals != ARRIVALS || r.admitted + r.queued + r.rejected != r.arrivals {
            return Err(format!(
                "arrivals {} != admitted {} + queued {} + rejected {} (want {ARRIVALS})",
                r.arrivals, r.admitted, r.queued, r.rejected
            ));
        }
        let sim_iters: usize = r.tenants.iter().map(|t| t.iter_secs.len()).sum();
        let fingerprint = Fnv::default()
            .u64(r.admitted as u64)
            .u64(r.queued as u64)
            .u64(r.rejected as u64)
            .u64(r.preemptions as u64)
            .f64(r.weighted_flow_secs);
        rec.sample("serve.arrivals_per_s", r.arrivals as f64 / secs);
        rec.sample("serve.sim_iters", sim_iters as f64);
        rec.sample("serve.preemptions", r.preemptions as f64);
        if rec.enabled() {
            // Outside the op's time: `serve` prices internally, this only
            // splits its time into pricing and event loop.
            let (pricing, _) = rec.untimed(|rec| price_templates(rec, &spec, &graphs));
            rec.sample("serve.loop_s", secs - pricing?);
        }
        Ok(OpResult::new(fingerprint.finish())
            .quality("serve_weighted_flow_s", r.weighted_flow_secs)
            .quality("serve_rejected_frac", r.rejection_rate))
    });
    let cluster = ClusterSpec::h100(4);
    let ppo = tenant("ppo", "ppo", 1.0, 64, 2)
        .build_experiment(&cluster, cfg.seed, &graphs)
        .map_err(|e| e.to_string())?;
    sweep(cfg, rec, &ppo)
}

/// Prices every template the way `serve` does before its event loop,
/// returning the seconds spent (profiling included).
fn price_templates(
    rec: &mut Recorder,
    spec: &WorkloadSpec,
    graphs: &GraphSet,
) -> Result<f64, String> {
    let cluster = ClusterSpec::h100(spec.nodes);
    let probe_steps = spec.admission().probe_steps;
    let mut total = 0.0;
    for (index, t) in spec.templates.iter().enumerate() {
        let begin = Instant::now();
        let exp = t
            .tenant
            .build_experiment(&cluster, spec.seed(), graphs)
            .map_err(|e| e.to_string())?;
        let (est, _) = exp.prepare();
        let mut memo = CostMemo::new();
        let prices = rec.span("serve.price_template", |_| {
            real_serve::price_template(&est, index as u64, spec.seed(), probe_steps, &mut memo)
        });
        black_box(prices);
        total += begin.elapsed().as_secs_f64();
    }
    Ok(total)
}

/// The layer sweep of the traced pass: one call of every layer the
/// per-layer metrics cover, on this workload's own experiment, so every
/// workload reports every layer at its own scale.
fn sweep(cfg: &Config, rec: &mut Recorder, exp: &Experiment) -> Result<(), String> {
    if !cfg.trace {
        return Ok(());
    }
    rec.set_lane(Lane::Sweep);
    let (est, space) = prepare(rec, exp)?;
    let mut rng = DeterministicRng::from_seed(cfg.seed).derive("sweep");
    for _ in 0..PRICED_PLANS {
        let assignments = (0..space.n_calls())
            .map(|call| {
                let options = space.options(call);
                options[rng.index(options.len())]
            })
            .collect();
        let plan = ExecutionPlan::new(exp.graph(), exp.cluster(), assignments)
            .map_err(|e| format!("random plan: {e:?}"))?;
        rec.span("estimator.cost", |_| black_box(est.cost(&plan)));
        rec.span("estimator.max_mem", |_| black_box(est.max_mem(&plan)));
        let mut pricer = PlanPricer::new(&est);
        rec.span("estimator.pricer_miss", |_| black_box(pricer.cost(&plan)));
        rec.span("estimator.pricer_hit", |_| black_box(pricer.cost(&plan)));
    }
    let fixed = McmcConfig {
        max_steps: 1,
        time_limit: Duration::from_secs(3600),
        seed: SEARCH_SEED,
        ..McmcConfig::default()
    };
    rec.span("search.fixed", |_| black_box(search(&est, &space, &fixed)));
    let r = mcmc(rec, &est, &space, SEARCH_SEED);
    if !r.feasible {
        return Err("sweep search found no memory-feasible plan".into());
    }
    let traced = exp.clone().with_engine_config(EngineConfig {
        trace_capacity: PROFILE_TRACE_CAPACITY,
        ..exp.engine_config().clone()
    });
    let report = execute(rec, &traced, &r.best_plan, 2)?;
    gap(rec, &r, &report);
    let stream = rec.span("obs.event_stream", |_| traced.event_stream(&report));
    rec.span("obs.critpath", |_| {
        let spans = real_obs::critpath::reconstruct_spans(&stream);
        let makespan = real_obs::critpath::makespan(&spans);
        black_box(real_obs::CriticalPath::extract(&spans, makespan))
    });
    analyse(rec, &traced, &report, &est).map(|_| ())
}
