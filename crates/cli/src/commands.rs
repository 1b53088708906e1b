//! The `real` CLI subcommands: build experiments from flags, plan, run,
//! and compare.

use crate::args::{ArgError, Args};
use real_core::prelude::*;
use real_core::real_dataflow::plan::PlanError;
use real_core::real_obs::ProfileReport;
use real_sched::{GraphSet, SchedConfig, SchedSpec, Scheduler, TenantSpec};
use real_serve::ServeError;
use std::fmt;
use std::time::Duration;

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing/extraction failed.
    Args(ArgError),
    /// A flag value is semantically invalid (unknown model, bad algorithm).
    Invalid(String),
    /// Planning found no feasible plan.
    NoFeasiblePlan,
    /// No symmetric heuristic plan fits the cluster.
    NoSymmetricPlan(NoSymmetricPlan),
    /// The run hit an engine error (OOM).
    Run(RunError),
    /// Filesystem I/O failed.
    Io(std::io::Error),
    /// JSON (de)serialization failed.
    Json(serde_json::Error),
    /// A `--plan` file does not fit the experiment's graph or cluster.
    Plan {
        /// The plan file.
        path: String,
        /// Why the plan was rejected.
        error: PlanError,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Invalid(m) => write!(f, "{m}"),
            CliError::NoFeasiblePlan => write!(f, "search found no memory-feasible plan"),
            CliError::NoSymmetricPlan(e) => write!(f, "{e}"),
            CliError::Run(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Json(e) => write!(f, "json error: {e}"),
            CliError::Plan { path, error } => {
                write!(f, "{path}: plan does not fit the experiment: {error}")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}
impl From<NoSymmetricPlan> for CliError {
    fn from(e: NoSymmetricPlan) -> Self {
        CliError::NoSymmetricPlan(e)
    }
}
impl From<RunError> for CliError {
    fn from(e: RunError) -> Self {
        CliError::Run(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}

/// Converts a byte offset in `text` into a 1-based `(line, column)`.
fn line_col(text: &str, offset: usize) -> (usize, usize) {
    let prefix = &text[..offset.min(text.len())];
    let line = prefix.bytes().filter(|&b| b == b'\n').count() + 1;
    let col = prefix
        .rfind('\n')
        .map_or(offset.min(text.len()) + 1, |nl| offset - nl);
    (line, col)
}

/// Reads and deserializes a JSON file, prefixing every failure with the
/// file path — and, for parse errors, the `line:column` of the offending
/// byte — so `real run --plan broken.json` points at the problem instead
/// of printing a bare "json error".
pub fn load_json<T: serde::Deserialize>(path: &str) -> Result<T, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
    serde_json::from_str(&text).map_err(|e| match e.byte_offset() {
        Some(off) => {
            let (line, col) = line_col(&text, off);
            CliError::Invalid(format!("{path}:{line}:{col}: {e}"))
        }
        None => CliError::Invalid(format!("{path}: {e}")),
    })
}

/// Loads a `--plan` file and validates it against `exp`: the assignments
/// are rebuilt through [`ExecutionPlan::new`] on the experiment's graph and
/// cluster, and every speculation choice is re-applied through
/// [`ExecutionPlan::with_spec`] with its draft mesh checked against the
/// cluster, so a plan saved for another experiment fails with the file and
/// the reason instead of panicking or being priced in part.
fn load_plan(path: &str, exp: &Experiment) -> Result<ExecutionPlan, CliError> {
    let saved: ExecutionPlan = load_json(path)?;
    let reject = |error| CliError::Plan {
        path: path.to_string(),
        error,
    };
    let cluster = exp.cluster();
    let mut plan =
        ExecutionPlan::new(exp.graph(), cluster, saved.assignments().to_vec()).map_err(reject)?;
    for (id, choice) in saved.spec_choices() {
        let mesh = &choice.assignment.mesh;
        if mesh.node_start() + mesh.n_nodes() > cluster.n_nodes
            || mesh.gpus_per_node() != cluster.gpus_per_node
        {
            return Err(reject(PlanError::ForeignMesh(id)));
        }
        plan = plan.with_spec(id, Some(choice.clone())).map_err(reject)?;
    }
    Ok(plan)
}

/// Pre-loads every `graph.json` file referenced by the given tenant specs
/// into a [`GraphSet`], so spec builders can resolve `graph` fields without
/// touching the filesystem themselves (and so a broken graph file fails
/// with a `path:line:col` parse error up front, before anything runs).
fn preload_graphs<'a>(
    tenants: impl IntoIterator<Item = &'a TenantSpec>,
) -> Result<GraphSet, CliError> {
    let mut graphs = GraphSet::new();
    for tenant in tenants {
        if let Some(path) = &tenant.graph {
            if !graphs.contains_key(path) {
                let spec: GraphSpec = load_json(path)?;
                graphs.insert(path.clone(), spec);
            }
        }
    }
    Ok(graphs)
}

/// Usage text.
pub const USAGE: &str = "\
real — ReaL RLHF execution planning on a simulated cluster

USAGE: real <command> [--flag value ...]

COMMANDS:
  plan        search for an execution plan, print it (optionally --out plan.json)
  run         execute a plan (searched, --heuristic, or --plan plan.json)
  replan      resume a saved search checkpoint (--from ckpt.json) with a
              fresh step budget; print (and --out) the improved plan
  baselines   run the four baseline systems plus ReaL on one workload
  profile     run a workload (or analyze a saved trace) and attribute the
              makespan: phases, critical path, per-GPU utilization,
              estimator gap; --baseline/--check gates regressions
  profile-db  profile a model family (--model SIZE; --out db.json to
              save it)
  estimate    per-call estimates + memory for a plan, without running it
  advise      sweep cluster sizes 1..--max-nodes, recommend one (§8.4)
  sched       pack concurrent tenant experiments onto one cluster
              (--tenants tenants.json; see docs/SCHEDULING.md)
  serve       run an open-stream serving workload: seeded arrivals,
              admission control, checkpointed preemption
              (--workload workload.json; see docs/SERVING.md)
  stats       pretty-print a metrics snapshot JSON (--file metrics.json)
  models      print the Table 1 model configurations
  help        this text

WORKLOAD FLAGS (plan/run/baselines):
  --nodes N        cluster nodes, 8 GPUs each        [default 1]
  --actor SIZE     1b | 7b | 13b | 34b | 70b         [default 7b]
  --critic SIZE    1b | 7b | 13b | 34b | 70b         [default 7b]
  --algo A         ppo|dpo|grpo|remax|raft|itdpo     [default ppo]
  --batch B        global batch (prompts)            [default 128]
  --ctx-scale K    context 2048*K, batch/K (Fig. 8)  [default 1]
  --seed S                                           [default 1]
  --graph FILE     load a user-defined graph.json workflow instead of
                   --algo/--actor/--critic/--batch (validated against
                   the estimator; see docs/DATAFLOWS.md)

SEARCH FLAGS (plan/run):
  --steps N        MCMC step budget                  [default 40000]
  --time SECS      search wall-clock budget          [default 20]
  --chains N       parallel chains                   [default 1]
  --threads N      worker threads for --chains; the chosen plan is
                   bit-identical for any value       [default: chains]
  --memo-stats     print memo-cache hits/misses/hit-rate after the search
  --spec-decode    make speculative draft/verify decode a search dimension
                   on generation calls (see docs/SPECULATION.md)
  --draft-model S  comma-separated draft sizes to consider  [default 1b,7b]
  --spec-k KS      comma-separated speculation lengths    [default 2,4,6,8]
  --acceptance A   replace the calibrated acceptance curves with a
                   constant in [0, 1] (ablations)
  --no-spec        force speculation off (wins over the flags above)
  --explain        (plan) diff the plan against the heuristic
  --out FILE       (plan) save the plan as JSON
  --checkpoint F   (plan/replan) save a resumable search checkpoint JSON
  --from FILE      (replan) checkpoint to resume from

RUN FLAGS:
  --iters N        RLHF iterations to execute        [default 2]
  --plan FILE      execute a saved plan JSON
  --heuristic      execute the symmetric REAL-Heuristic plan
  --no-cuda-graph  disable CUDA-graph generation
  --trace FILE     write a Chrome/Perfetto trace JSON of the run
  --metrics FILE   write a metrics snapshot JSON (runtime + search telemetry;
                   also accepted by estimate for Algorithm-1 queue telemetry)
  --quick-profile  reduced profiling grid (faster, coarser)
  --profile-db F   comma-separated saved profile JSONs to reuse
  --faults FILE    inject a FaultPlan JSON (slowdowns, crashes, link
                   degradation); the run reports retries and lost work
  --max-retries N  retry budget per request before degraded mode [default 3]
  --replan         enable elastic re-planning: when faults kill a worker or
                   degrade throughput, re-search on the surviving GPUs and
                   switch plans mid-run (needs --faults to have any effect)
  --replan-steps N MCMC budget per mid-run re-search          [default 2000]
  --dead-after S   declare a worker dead after S stalled secs [default 120]
  --async-offpolicy  overlap next-iteration generation with the current
                   training step on disjoint meshes (staleness-bounded
                   off-policy execution; a graph.json `offpolicy` section
                   enables this too). The search prices the async
                   schedule, so it places generation for the overlap.
  --staleness N    async off-policy staleness bound            [default 1]

PROFILE FLAGS:
  --trace FILE     analyze a saved Chrome trace instead of running
                   (no estimator-gap section in that mode)
  --top N          critical-path entries to keep          [default 10]
  --out FILE       save the ProfileReport JSON
  --json           print the report as JSON instead of tables
  --baseline FILE  compare against a saved ProfileReport JSON
  --check          fail (non-zero) when the baseline comparison drifts
  --tolerance-pct N  allowed drift per check              [default 5]
  (plus the workload and run flags: --heuristic / --plan for plan
  selection, --iters, --faults, ...)

SCHED FLAGS:
  --tenants FILE   tenant-set spec JSON (required; see docs/SCHEDULING.md)
  --dry-run        print allocations + estimated step times, don't run
  --seed S         override the spec seed
  --steps N        per-tenant plan refinement budget        [default 2000]
  --score-steps N  MCMC budget per candidate allocation     [default 300]
  --max-stretch X  fairness bound on per-tenant slowdown    [default 4.0]
  --trace FILE     Chrome trace with one process group per tenant
  --metrics FILE   sched/* metrics snapshot JSON
  --json           print the SchedReport as JSON

SERVE FLAGS:
  --workload FILE  workload spec JSON (required; see docs/SERVING.md)
  --seed S         override the spec seed
  --horizon SECS   override the simulated horizon
  --max-stretch X  override the admission stretch bound      [default 4.0]
  --probe-steps N  MCMC budget per (template, mesh) pricing  [default 200]
  --admit-all      disable admission control and preemption (the
                   ablation baseline: never reject, never preempt)
  --no-preemption  keep admission control but never preempt
  --trace FILE     Chrome trace with one lifecycle lane per arrival
  --metrics FILE   serve/* metrics snapshot JSON
  --json           print the ServeReport as JSON
";

/// Builds an [`Experiment`] from common workload flags.
pub fn experiment_from(args: &Args) -> Result<Experiment, CliError> {
    let nodes: u32 = args.num_or("nodes", 1)?;
    if nodes == 0 || !nodes.is_power_of_two() {
        return Err(CliError::Invalid(format!(
            "--nodes must be a positive power of two, got {nodes}"
        )));
    }
    let cluster = ClusterSpec::h100(nodes);
    let actor = model_flag(args, "actor")?;
    let critic = model_flag(args, "critic")?.critic();
    let batch: u64 = args.num_or("batch", 128)?;
    let ctx_scale: u64 = args.num_or("ctx-scale", 1)?;
    if ctx_scale == 0 || !batch.is_multiple_of(ctx_scale) {
        return Err(CliError::Invalid(format!(
            "--ctx-scale {ctx_scale} must be positive and divide --batch {batch}"
        )));
    }
    let cfg = RlhfConfig::instruct_gpt(batch).with_context_scale(ctx_scale);
    let mut exp = if let Some(gpath) = args.str_opt("graph") {
        let spec: GraphSpec = load_json(gpath)?;
        Experiment::from_graph(cluster, &spec)
            .map_err(|e| CliError::Invalid(format!("--graph {gpath}: {e}")))?
    } else {
        let algo = args.str_or("algo", "ppo");
        match algo.as_str() {
            "ppo" => Experiment::ppo(cluster, actor, critic, cfg),
            "dpo" => Experiment::dpo(cluster, actor, cfg),
            "grpo" => Experiment::grpo(cluster, actor, critic, cfg),
            "remax" => Experiment::remax(cluster, actor, critic, cfg),
            "raft" => Experiment::raft(cluster, actor, critic, cfg),
            "itdpo" => Experiment::iterative_dpo(cluster, actor, critic, cfg),
            other => {
                return Err(CliError::Invalid(format!(
                    "unknown --algo {other}; expected ppo|dpo|grpo|remax|raft|itdpo"
                )))
            }
        }
    };
    exp = exp.with_seed(args.num_or("seed", 1)?);
    if args.flag("quick-profile") {
        exp = exp.with_quick_profile();
    }
    if let Some(path) = args.str_opt("profile-db") {
        let mut profiles = Vec::new();
        for part in path.split(',') {
            let db: ProfileDb = load_json(part)?;
            profiles.push(db);
        }
        exp = exp.with_profiles(profiles);
    }
    // Async off-policy: --async-offpolicy enables it, a graph spec's
    // `offpolicy` section enables it, and --staleness overrides either
    // bound.
    let spec_staleness = exp.async_staleness();
    if args.flag("async-offpolicy") || spec_staleness.is_some() {
        let default = spec_staleness.unwrap_or(real_core::real_dataflow::spec::DEFAULT_STALENESS);
        let staleness: u32 = args.num_or("staleness", default)?;
        if staleness > real_core::real_dataflow::spec::MAX_STALENESS {
            return Err(CliError::Invalid(format!(
                "--staleness {staleness} exceeds the maximum of {}",
                real_core::real_dataflow::spec::MAX_STALENESS
            )));
        }
        exp = exp.with_async_offpolicy(staleness);
    }
    // The engine configuration is based on the experiment's own (which
    // carries the graph spec's call hooks), not a fresh default.
    let mut engine = exp.engine_config().clone();
    if args.flag("no-cuda-graph") {
        engine.cuda_graph = false;
    }
    if args.str_opt("trace").is_some() {
        engine.trace_capacity = usize::MAX;
    }
    if let Some(path) = args.str_opt("faults") {
        let plan: FaultPlan = load_json(path)?;
        if let Err(e) = plan.validate() {
            return Err(CliError::Invalid(format!("--faults {path}: {e}")));
        }
        engine.fault_plan = Some(plan);
    }
    engine.max_retries = args.num_or("max-retries", engine.max_retries)?;
    let exp = exp.with_engine_config(engine);
    // A user-defined graph must also be *searchable*: price every call
    // through the estimator before planning or running anything with it.
    if let Some(gpath) = args.str_opt("graph") {
        let (est, _) = exp.prepare();
        probe::probe(&est).map_err(|e| CliError::Invalid(format!("--graph {gpath}: {e}")))?;
    }
    Ok(exp)
}

fn model_flag(args: &Args, flag: &str) -> Result<ModelSpec, CliError> {
    let size = args.str_or(flag, "7b");
    ModelSpec::by_size(&size).ok_or_else(|| {
        CliError::Invalid(format!(
            "unknown --{flag} {size}; expected 1b|7b|13b|34b|70b"
        ))
    })
}

/// Builds the speculation menu from `--spec-decode` / `--draft-model` /
/// `--spec-k` / `--acceptance`. The menu is empty when speculation stays
/// off: the default, or forced with `--no-spec` (which wins over the
/// others).
fn spec_menu_from(args: &Args, cluster: &ClusterSpec) -> Result<SpecMenu, CliError> {
    if !speculation_requested(args) {
        return Ok(SpecMenu::empty());
    }
    let drafts = match args.str_opt("draft-model") {
        Some(sizes) => {
            let mut drafts = Vec::new();
            for size in sizes.split(',') {
                drafts.push(ModelSpec::by_size(size).ok_or_else(|| {
                    CliError::Invalid(format!(
                        "unknown --draft-model {size}; expected 1b|7b|13b|34b|70b"
                    ))
                })?);
            }
            drafts
        }
        None => vec![ModelSpec::llama3_1b(), ModelSpec::llama3_7b()],
    };
    let ks = match args.str_opt("spec-k") {
        Some(ks) => {
            let mut out = Vec::new();
            for k in ks.split(',') {
                let k: u32 = k.parse().map_err(|_| {
                    CliError::Invalid(format!("--spec-k: cannot parse {k:?} as a length"))
                })?;
                if k == 0 {
                    return Err(CliError::Invalid(
                        "--spec-k lengths must be positive".into(),
                    ));
                }
                out.push(k);
            }
            out
        }
        None => vec![2, 4, 6, 8],
    };
    let mut menu = SpecMenu::build(cluster, drafts, ks, SpecTask::RlhfRollout);
    if args.str_opt("acceptance").is_some() {
        let alpha: f64 = args.num_or("acceptance", 0.0)?;
        if !(0.0..=1.0).contains(&alpha) {
            return Err(CliError::Invalid(format!(
                "--acceptance {alpha} must be within [0, 1]"
            )));
        }
        menu = menu.with_curve(AcceptanceCurve::Constant(alpha));
    }
    Ok(menu)
}

/// The search-planning path shared by `plan`, `run`, and `profile`: runs
/// [`Experiment::plan_search`] with the `--chains`/`--threads` budget and
/// the speculation menu (empty unless asked for).
fn plan_searched(args: &Args, exp: &Experiment) -> Result<PlannedExperiment, CliError> {
    let menu = spec_menu_from(args, exp.cluster())?;
    let (cfg, chains, threads) = mcmc_from(args)?;
    exp.plan_search(&cfg, chains, threads, &menu)
        .map_err(|_| CliError::NoFeasiblePlan)
}

/// Whether any speculation flag asks for speculative planning (`--no-spec`
/// wins over all of them).
fn speculation_requested(args: &Args) -> bool {
    let requested = args.flag("spec-decode")
        || args.str_opt("draft-model").is_some()
        || args.str_opt("spec-k").is_some()
        || args.str_opt("acceptance").is_some();
    requested && !args.flag("no-spec")
}

/// Search configuration from flags: `(config, chains, threads)`.
///
/// # Errors
///
/// Rejects zero chains or threads.
pub fn mcmc_from(args: &Args) -> Result<(McmcConfig, usize, usize), CliError> {
    let cfg = McmcConfig {
        max_steps: args.num_or("steps", 40_000u64)?,
        time_limit: Duration::from_secs(args.num_or("time", 20u64)?),
        seed: args.num_or("seed", 1u64)?,
        ..McmcConfig::default()
    };
    let chains: usize = args.num_or("chains", 1usize)?;
    if chains == 0 {
        return Err(CliError::Invalid("--chains must be positive".into()));
    }
    // The plan is bit-identical for any thread count; --threads only caps
    // the worker pool (e.g. on a shared login node).
    let threads: usize = args.num_or("threads", chains)?;
    if threads == 0 {
        return Err(CliError::Invalid("--threads must be positive".into()));
    }
    Ok((cfg, chains, threads))
}

/// The `--memo-stats` section: memo-cache effectiveness for one search.
fn memo_stats_line(m: &real_core::real_estimator::MemoStats) -> String {
    format!(
        "memo: {} hits / {} misses (hit rate {:.1}%), {} entries, {} invalidations\n",
        m.hits,
        m.misses,
        m.hit_rate() * 100.0,
        m.entries,
        m.invalidations,
    )
}

/// `real plan`: the MCMC search over `--chains` chains, with speculation
/// as a search dimension behind the speculation flags.
pub fn cmd_plan(args: &Args) -> Result<String, CliError> {
    let exp = experiment_from(args)?;
    let planned = plan_searched(args, &exp)?;
    let (plan, search) = (&planned.plan, &planned.search);
    let best_time_cost = search.best().best_time_cost;

    if let Some(path) = args.str_opt("out") {
        std::fs::write(path, serde_json::to_string_pretty(plan)?)?;
    }
    if let Some(path) = args.str_opt("checkpoint") {
        search.base.checkpoint().save(std::path::Path::new(path))?;
    }
    let mut out = plan.render(exp.graph());
    if args.flag("explain") {
        let (est, _) = exp.prepare();
        let heuristic = exp.plan_heuristic()?;
        let cmp = compare(&est, &heuristic, plan);
        out.push_str("\nvs the symmetric heuristic (single-swap contributions):\n");
        out.push_str(&cmp.render());
    }
    out.push_str(&format!(
        "\nsearch: {} steps, {} accepted ({:.0}%), best TimeCost {:.2}s, profiling {:.0}s (simulated)\n",
        search.base.steps,
        search.base.accepted,
        search.base.acceptance_rate() * 100.0,
        best_time_cost,
        planned.profiling_secs,
    ));
    if speculation_requested(args) {
        let (steps, accepted) = search
            .refined
            .as_ref()
            .map_or((0, 0), |r| (r.steps, r.accepted));
        out.push_str(&format!(
            "speculation: {steps} proposals, {accepted} accepted; TimeCost {best_time_cost:.2}s vs {:.2}s plain ({:.2}x)\n",
            search.base.best_time_cost,
            search.speedup_over_base(),
        ));
    }
    if args.flag("memo-stats") {
        out.push_str(&memo_stats_line(&search.memo()));
    }
    Ok(out)
}

/// Elastic re-planning runs the synchronous schedule only, so `--replan`
/// together with async off-policy execution (`--async-offpolicy` or a
/// graph's `offpolicy` section) is rejected rather than silently run
/// synchronously.
fn reject_replan_with_async(args: &Args, exp: &Experiment) -> Result<(), CliError> {
    if args.flag("replan") && exp.async_staleness().is_some() {
        return Err(CliError::Invalid(
            "--replan cannot be combined with async off-policy execution \
             (--async-offpolicy or a graph `offpolicy` section)"
                .into(),
        ));
    }
    Ok(())
}

/// The plan `run` and `profile` execute: `--plan FILE`, `--heuristic`, or
/// the search of `real plan`, which prices async off-policy runs under
/// their staleness bound (the runtime executes whatever speculation it
/// attached: draft/verify loops on the draft mesh). Returns the plan and
/// the plain search behind it, if any.
fn plan_to_execute(
    args: &Args,
    exp: &Experiment,
) -> Result<(ExecutionPlan, Option<SearchResult>), CliError> {
    if let Some(path) = args.str_opt("plan") {
        return Ok((load_plan(path, exp)?, None));
    }
    if args.flag("heuristic") {
        return Ok((exp.plan_heuristic()?, None));
    }
    let planned = plan_searched(args, exp)?;
    Ok((planned.plan, Some(planned.search.base)))
}

/// `real run`
pub fn cmd_run(args: &Args) -> Result<String, CliError> {
    let mut exp = experiment_from(args)?;
    reject_replan_with_async(args, &exp)?;
    if args.flag("replan") {
        let policy = ReplanPolicy::new()
            .with_search_steps(args.num_or("replan-steps", 2_000u64)?)
            .with_dead_after(args.num_or("dead-after", 120.0f64)?);
        exp = exp.with_replan_policy(policy);
    }
    let (plan, search) = plan_to_execute(args, &exp)?;
    let iters: usize = args.num_or("iters", 2)?;
    let report = exp.run(&plan, iters)?;
    if let Some(path) = args.str_opt("trace") {
        let stream = exp.event_stream(&report);
        std::fs::write(path, real_core::real_obs::chrome::to_chrome_string(&stream))?;
    }
    if let Some(path) = args.str_opt("metrics") {
        let metrics = exp.metrics(&report, search.as_ref());
        std::fs::write(path, serde_json::to_string_pretty(&metrics.snapshot())?)?;
    }
    let mut out = report.render(exp.graph());
    if !report.run.async_stats.is_empty() {
        out.push_str(&report.run.async_stats.render_line());
        out.push('\n');
        let overlap = real_core::real_obs::profile::phase_overlap(
            &exp.spans(&report),
            real_core::real_obs::Phase::Generation,
            real_core::real_obs::Phase::Training,
        );
        out.push_str(&format!(
            "measured gen/train phase overlap: {overlap:.2}s over {} iteration(s)\n",
            report.run.iterations
        ));
    }
    if args.flag("memo-stats") {
        if let Some(search) = &search {
            out.push_str(&memo_stats_line(&search.memo));
        }
    }
    Ok(out)
}

/// `real replan`: resume a saved search checkpoint against a fresh step
/// budget — the offline half of elastic re-planning. The workload flags
/// must describe the same cluster and dataflow graph the checkpoint was
/// searched for.
pub fn cmd_replan(args: &Args) -> Result<String, CliError> {
    let from = args
        .str_opt("from")
        .ok_or_else(|| CliError::Invalid("replan needs --from checkpoint.json".into()))?;
    let ckpt = SearchCheckpoint::load(std::path::Path::new(from))?;
    let exp = experiment_from(args)?;
    if ckpt.chain.best.assignments().len() != exp.graph().n_calls() {
        return Err(CliError::Invalid(format!(
            "--from {from}: checkpoint has {} calls but the workload flags describe {}; \
             pass the same --algo/--actor/--critic/--batch the checkpoint was planned with",
            ckpt.chain.best.assignments().len(),
            exp.graph().n_calls(),
        )));
    }
    let (est, _) = exp.prepare();
    let space = SearchSpace::build(exp.cluster(), exp.graph(), PruneLevel::Aggressive);
    let cfg = McmcConfig {
        max_steps: args.num_or("steps", ckpt.chain.max_steps.saturating_mul(2))?,
        time_limit: Duration::from_secs(args.num_or("time", 20u64)?),
        seed: ckpt.chain.seed,
        ..McmcConfig::default()
    };
    let result = resume(&est, &space, &cfg, &ckpt);
    if let Some(path) = args.str_opt("out") {
        std::fs::write(path, serde_json::to_string_pretty(&result.best_plan)?)?;
    }
    if let Some(path) = args.str_opt("checkpoint") {
        result.checkpoint().save(std::path::Path::new(path))?;
    }
    let mut out = String::new();
    out.push_str(&result.best_plan.render(exp.graph()));
    out.push_str(&format!(
        "\nresumed from step {} to step {}: best TimeCost {:.2}s, {} accepted ({:.0}%)\n",
        ckpt.chain.steps,
        result.steps,
        result.best_time_cost,
        result.accepted,
        result.acceptance_rate() * 100.0,
    ));
    Ok(out)
}

/// `real baselines`
pub fn cmd_baselines(args: &Args) -> Result<String, CliError> {
    let exp = experiment_from(args)?;
    if args.str_or("algo", "ppo") != "ppo" {
        return Err(CliError::Invalid(
            "baselines are defined for --algo ppo".into(),
        ));
    }
    let cluster = exp.cluster().clone();
    let graph = exp.graph().clone();
    let iters: usize = args.num_or("iters", 2)?;
    let tokens = graph
        .calls()
        .iter()
        .map(|c| c.call_type.total_tokens())
        .max()
        .unwrap_or(0);

    let mut table = real_util::Table::new(vec!["system", "tokens/s", "iteration (s)"]);
    for (name, setup) in baselines::all(&cluster, &graph, exp.engine_config()) {
        match setup {
            Ok(b) => {
                let engine = RuntimeEngine::new(cluster.clone(), graph.clone(), b.config);
                match engine.run(&b.plan, iters) {
                    Ok(r) => table.row(vec![
                        name.into(),
                        format!("{:.0}", r.tokens_per_sec(tokens)),
                        format!("{:.1}", r.iter_time),
                    ]),
                    Err(_) => table.row(vec![name.into(), "OOM".into(), "-".into()]),
                }
            }
            Err(_) => table.row(vec![name.into(), "OOM".into(), "-".into()]),
        };
    }
    let (cfg, chains, threads) = mcmc_from(args)?;
    if let Ok(planned) = exp.plan_search(&cfg, chains, threads, &SpecMenu::empty()) {
        let r = exp.run(&planned.plan, iters)?;
        table.row(vec![
            "ReaL (searched)".into(),
            format!("{:.0}", r.tokens_per_sec),
            format!("{:.1}", r.run.iter_time),
        ]);
    }
    Ok(table.render())
}

/// `real profile`: phase-attributed makespan profile (Fig. 8/12 views) of
/// a fresh run or a saved trace, with an optional regression gate against
/// a committed baseline report.
pub fn cmd_profile(args: &Args) -> Result<String, CliError> {
    use real_core::real_obs::{critpath, phase_overlap, Phase};
    let top_k: usize = args.num_or("top", 10)?;
    // A saved Chrome trace is replayed into its spans and leaves the
    // estimator gap empty: it needs the live experiment. A fresh run is
    // recorded into its spans once; the report and the phase overlap both
    // read them.
    let (spans, estimator_gap) = if let Some(path) = args.str_opt("trace") {
        let value: serde_json::Value = load_json(path)?;
        let stream = real_core::real_obs::from_chrome_value(&value).map_err(CliError::Invalid)?;
        (critpath::reconstruct_spans(&stream), Vec::new())
    } else {
        let exp = experiment_from(args)?;
        reject_replan_with_async(args, &exp)?;
        // Profiling needs every kernel span regardless of --trace. The
        // profile keeps 32-byte spans, not a second event stream, so the
        // kernel trace of a fresh run is not capped.
        let engine = EngineConfig {
            trace_capacity: usize::MAX,
            ..exp.engine_config().clone()
        };
        let exp = exp.with_engine_config(engine);
        // Speculative plans profile with gen/draft, gen/verify, and
        // gen/fallback sub-rows in the phase attribution.
        let (plan, _) = plan_to_execute(args, &exp)?;
        let iters: usize = args.num_or("iters", 2)?;
        let run = exp.run(&plan, iters)?;
        let (est, _) = exp.prepare();
        let gap = exp.estimator_gap(&run, &est);
        (exp.spans(&run), gap)
    };
    let overlap = phase_overlap(&spans, Phase::Generation, Phase::Training);
    let mut report = ProfileReport::from_spans(&spans, top_k);
    report.estimator_gap = estimator_gap;
    if let Some(path) = args.str_opt("out") {
        std::fs::write(path, serde_json::to_string_pretty(&report)?)?;
    }
    let mut out = if args.flag("json") {
        serde_json::to_string_pretty(&report)?
    } else {
        let mut rendered = report.render();
        rendered.push_str(&format!("gen/train phase overlap: {overlap:.2}s\n"));
        rendered
    };
    if let Some(bpath) = args.str_opt("baseline") {
        let baseline: ProfileReport = load_json(bpath)?;
        let tolerance: f64 = args.num_or("tolerance-pct", 5.0)?;
        let violations = report.check_against(&baseline, tolerance);
        if violations.is_empty() {
            out.push_str(&format!(
                "\nbaseline check OK: within {tolerance}% of {bpath}\n"
            ));
        } else if args.flag("check") {
            return Err(CliError::Invalid(format!(
                "profile drifted from baseline {bpath}:\n  {}",
                violations.join("\n  ")
            )));
        } else {
            out.push_str(&format!(
                "\nbaseline drift vs {bpath} (tolerance {tolerance}%):\n  {}\n",
                violations.join("\n  ")
            ));
        }
    }
    Ok(out)
}

/// `real profile-db`: profile a model family into a reusable database.
pub fn cmd_profile_db(args: &Args) -> Result<String, CliError> {
    let nodes: u32 = args.num_or("nodes", 1)?;
    let model = model_flag(args, "model").or_else(|_| model_flag(args, "actor"))?;
    let config = if args.flag("quick-profile") {
        ProfileConfig::quick()
    } else {
        ProfileConfig::paper()
    };
    let mut profiler = Profiler::new(
        ClusterSpec::h100(nodes.max(1)),
        config,
        args.num_or("seed", 1)?,
    );
    let db = profiler.profile(&model);
    if let Some(path) = args.str_opt("out") {
        std::fs::write(path, serde_json::to_string(&db)?)?;
    }
    Ok(format!(
        "profiled {}: {} tables from {} samples, {:.0}s of simulated microbenchmarks\n",
        db.model_name(),
        db.n_tables(),
        db.n_samples(),
        db.profiling_secs(),
    ))
}

/// `real estimate`: per-call estimates and memory for a plan without
/// executing it (the lightweight §5.1 path alone).
pub fn cmd_estimate(args: &Args) -> Result<String, CliError> {
    let exp = experiment_from(args)?;
    let plan = if let Some(path) = args.str_opt("plan") {
        load_plan(path, &exp)?
    } else {
        exp.plan_heuristic()?
    };
    let (est, _) = exp.prepare();
    let mut t = real_util::Table::new(vec!["call", "assignment", "estimated (s)"]);
    for (id, def) in exp.graph().iter() {
        let a = plan.assignment(id);
        t.row(vec![
            def.call_name.clone(),
            a.to_string(),
            format!("{:.2}", est.call_duration(id, a)),
        ]);
    }
    // When a metrics snapshot is requested, run the instrumented Algorithm 1
    // so the printed TimeCost and the recorded queue telemetry agree.
    let time_cost = if let Some(path) = args.str_opt("metrics") {
        let mut metrics = MetricsRegistry::new();
        let cost = est.time_cost_instrumented(&plan, &mut metrics);
        metrics.gauge_set("estimator/max_mem_bytes", &[], est.max_mem(&plan) as f64);
        std::fs::write(path, serde_json::to_string_pretty(&metrics.snapshot())?)?;
        cost
    } else {
        est.time_cost(&plan)
    };
    Ok(format!(
        "{}\nTimeCost {:.2}s; MaxMem {} (capacity {}); feasible: {}\n",
        t.render(),
        time_cost,
        real_util::units::fmt_bytes(est.max_mem(&plan)),
        real_util::units::fmt_bytes(exp.cluster().gpu.mem_capacity),
        est.mem_ok(&plan),
    ))
}

/// Formats a label set as `{k=v,k2=v2}` (empty string when unlabelled).
fn fmt_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{{{}}}", parts.join(","))
}

/// `real stats`: pretty-print a metrics snapshot written by
/// `real run --metrics` or `real estimate --metrics`.
pub fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let path = args
        .str_opt("file")
        .ok_or_else(|| CliError::Invalid("stats needs --file metrics.json".into()))?;
    let snap: MetricsSnapshot = load_json(path)?;
    Ok(render_stats(&snap))
}

/// Renders a [`MetricsSnapshot`] as `real-util` tables: one for scalar
/// metrics (counters and gauges), one per distribution kind.
fn render_stats(snap: &MetricsSnapshot) -> String {
    use real_core::real_obs::MetricValue;

    let mut scalars = real_util::Table::new(vec!["metric", "kind", "value"]);
    let mut histograms = real_util::Table::new(vec![
        "histogram",
        "count",
        "mean",
        "p50",
        "p95",
        "p99",
        "sum",
    ]);
    let mut series = real_util::Table::new(vec!["series", "points", "dropped", "last"]);
    let (mut n_scalar, mut n_hist, mut n_series) = (0usize, 0usize, 0usize);
    for entry in &snap.metrics {
        let name = format!("{}{}", entry.name, fmt_labels(&entry.labels));
        match &entry.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                n_scalar += 1;
                scalars.row(vec![name, entry.value.kind().into(), format!("{v:.6}")]);
            }
            MetricValue::Histogram(h) => {
                n_hist += 1;
                let q = |p: f64| {
                    h.quantile(p)
                        .map_or_else(|| "-".into(), |v| format!("{v:.4}"))
                };
                histograms.row(vec![
                    name,
                    h.count().to_string(),
                    format!("{:.4}", h.mean()),
                    q(0.50),
                    q(0.95),
                    q(0.99),
                    format!("{:.4}", h.sum()),
                ]);
            }
            MetricValue::Series(s) => {
                n_series += 1;
                series.row(vec![
                    name,
                    s.points().len().to_string(),
                    s.dropped().to_string(),
                    s.last_y().map_or_else(|| "-".into(), |y| format!("{y:.4}")),
                ]);
            }
        }
    }
    let mut out = String::new();
    if n_scalar > 0 {
        out.push_str(&scalars.render());
    }
    if n_hist > 0 {
        out.push('\n');
        out.push_str(&histograms.render());
    }
    if n_series > 0 {
        out.push('\n');
        out.push_str(&series.render());
    }
    if out.is_empty() {
        out.push_str("no metrics in snapshot\n");
    }
    out
}

/// `real advise`: sweep candidate cluster sizes and recommend one (§8.4).
pub fn cmd_advise(args: &Args) -> Result<String, CliError> {
    let max_nodes: u32 = args.num_or("max-nodes", 8)?;
    if max_nodes == 0 {
        return Err(CliError::Invalid("--max-nodes must be positive".into()));
    }
    let mut candidates = Vec::new();
    let mut n = 1;
    while n <= max_nodes {
        candidates.push(n);
        n *= 2;
    }
    let (cfg, _, _) = mcmc_from(args)?;
    let iters: usize = args.num_or("iters", 2)?;
    // Rebuild the experiment per size by substituting --nodes.
    let rec = real_core::advisor::recommend(&candidates, &cfg, iters, |nodes| {
        let mut patched = args.clone();
        patched.set("nodes", nodes.to_string());
        experiment_from(&patched).expect("flags validated on first use")
    });
    // Validate the base flags once so errors surface cleanly.
    experiment_from(args)?;
    Ok(rec.render())
}

/// `real models`
pub fn cmd_models() -> String {
    let mut t = real_util::Table::new(vec![
        "id",
        "hidden",
        "intermediate",
        "layers",
        "heads",
        "kv",
        "params",
        "params w/o out-embed",
    ]);
    for size in ["1b", "7b", "13b", "34b", "70b"] {
        let m = ModelSpec::by_size(size).expect("preset exists");
        t.row(vec![
            size.into(),
            m.hidden.to_string(),
            m.intermediate.to_string(),
            m.n_layers.to_string(),
            m.n_heads.to_string(),
            m.n_kv_heads.to_string(),
            m.param_count().to_string(),
            m.param_count_no_output_embed().to_string(),
        ]);
    }
    t.render()
}

/// `real sched`: pack the tenants of a `tenants.json` spec onto one
/// cluster and (unless `--dry-run`) run the schedule on the serving loop.
pub fn cmd_sched(args: &Args) -> Result<String, CliError> {
    let path = args
        .str_opt("tenants")
        .ok_or_else(|| CliError::Invalid("sched needs --tenants tenants.json".into()))?;
    let spec: SchedSpec = load_json(path)?;
    let graphs = preload_graphs(&spec.tenants)?;
    let (cluster, mut tenants) = spec
        .build_with_graphs(&graphs)
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    if args.str_opt("trace").is_some() {
        // Every tenant traces its kernels, as `real run --trace` does.
        tenants = tenants
            .into_iter()
            .map(|t| {
                let config = EngineConfig {
                    trace_capacity: usize::MAX,
                    ..t.experiment().engine_config().clone()
                };
                let exp = t.experiment().clone().with_engine_config(config);
                t.with_experiment(exp)
            })
            .collect();
    }
    let config = SchedConfig {
        seed: args.num_or("seed", spec.seed())?,
        refine_steps: args.num_or("steps", 2_000u64)?,
        score_steps: args.num_or("score-steps", 300u64)?,
        max_stretch: args.num_or("max-stretch", 4.0f64)?,
        ..SchedConfig::default()
    };
    let scheduler = Scheduler::new(cluster).with_config(config);
    if args.flag("dry-run") {
        let schedule = scheduler
            .plan(&tenants)
            .map_err(|e| CliError::Invalid(e.to_string()))?;
        return Ok(schedule.render());
    }
    let outcome = real_serve::run_sched(&scheduler, &tenants).map_err(|e| match e {
        ServeError::Session(real_core::real_runtime::SessionError::Run(run)) => CliError::Run(run),
        other => CliError::Invalid(other.to_string()),
    })?;
    if let Some(path) = args.str_opt("trace") {
        let stream = real_sched::obs::sched_event_stream(
            &tenants,
            &outcome.schedule,
            &outcome.reports,
            &outcome.admitted_secs,
        );
        std::fs::write(path, real_core::real_obs::chrome::to_chrome_string(&stream))?;
    }
    if let Some(path) = args.str_opt("metrics") {
        let metrics = real_sched::obs::sched_metrics(&outcome.report);
        std::fs::write(path, serde_json::to_string_pretty(&metrics.snapshot())?)?;
    }
    if args.flag("json") {
        return Ok(serde_json::to_string_pretty(&outcome.report)?);
    }
    // The stretch / queue-wait percentile table is embedded in the report
    // (`SchedReport::percentiles`), so `render()` already includes it.
    Ok(outcome.report.render())
}

/// `real serve`: run a `workload.json` open-stream serving workload — a
/// seeded arrival trace with admission control and checkpointed preemption
/// — and report admission rates, queue-wait/stretch percentiles, and the
/// utilization timeline.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let path = args
        .str_opt("workload")
        .ok_or_else(|| CliError::Invalid("serve needs --workload workload.json".into()))?;
    let mut spec: real_serve::WorkloadSpec = load_json(path)?;
    if args.str_opt("seed").is_some() {
        spec.seed = Some(args.num_or("seed", spec.seed())?);
    }
    if args.str_opt("horizon").is_some() {
        spec.horizon_secs = Some(args.num_or("horizon", spec.horizon())?);
    }
    let resolved = spec.admission();
    let overridden = args.str_opt("max-stretch").is_some()
        || args.str_opt("probe-steps").is_some()
        || args.flag("admit-all")
        || args.flag("no-preemption");
    if overridden {
        spec.admission = Some(real_serve::AdmissionSpec {
            max_stretch: Some(args.num_or("max-stretch", resolved.max_stretch)?),
            admit_all: Some(resolved.admit_all || args.flag("admit-all")),
            preemption: Some(resolved.preemption && !args.flag("no-preemption")),
            min_benefit_ratio: Some(resolved.min_benefit_ratio),
            probe_steps: Some(args.num_or("probe-steps", resolved.probe_steps)?),
        });
    }
    let graphs = preload_graphs(spec.templates.iter().map(|t| &t.tenant))?;
    let report = real_serve::serve(&spec, &graphs).map_err(|e| CliError::Invalid(e.to_string()))?;
    if let Some(path) = args.str_opt("trace") {
        let stream = real_serve::serve_event_stream(&report);
        std::fs::write(path, real_core::real_obs::chrome::to_chrome_string(&stream))?;
    }
    if let Some(path) = args.str_opt("metrics") {
        let metrics = real_serve::serve_metrics(&report);
        std::fs::write(path, serde_json::to_string_pretty(&metrics.snapshot())?)?;
    }
    if args.flag("json") {
        return Ok(serde_json::to_string_pretty(&report)?);
    }
    Ok(report.render())
}

/// Dispatches a parsed command line.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command() {
        "plan" => cmd_plan(args),
        "run" => cmd_run(args),
        "replan" => cmd_replan(args),
        "baselines" => cmd_baselines(args),
        "profile" => cmd_profile(args),
        "profile-db" => cmd_profile_db(args),
        "estimate" => cmd_estimate(args),
        "advise" => cmd_advise(args),
        "sched" => cmd_sched(args),
        "serve" => cmd_serve(args),
        "stats" => cmd_stats(args),
        "models" => Ok(cmd_models()),
        "help" => Ok(USAGE.to_string()),
        other => Err(CliError::Invalid(format!(
            "unknown command {other:?}; try `real help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Args {
        Args::parse(argv.iter().copied()).unwrap()
    }

    #[test]
    fn models_table_matches_table1() {
        let out = cmd_models();
        assert!(out.contains("8030261248"));
        assert!(out.contains("70553706496"));
    }

    #[test]
    fn experiment_from_defaults() {
        let exp = experiment_from(&parse(&["plan"])).unwrap();
        assert_eq!(exp.cluster().n_nodes, 1);
        assert_eq!(exp.graph().n_calls(), 6); // ppo
    }

    #[test]
    fn experiment_rejects_bad_model_and_algo() {
        assert!(experiment_from(&parse(&["plan", "--actor", "3b"])).is_err());
        assert!(experiment_from(&parse(&["plan", "--algo", "sft"])).is_err());
        assert!(experiment_from(&parse(&["plan", "--nodes", "3"])).is_err());
        assert!(experiment_from(&parse(&["plan", "--ctx-scale", "3", "--batch", "128"])).is_err());
    }

    #[test]
    fn plan_and_run_roundtrip_through_json() {
        let dir = std::env::temp_dir().join("real-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan_path = dir.join("plan.json");
        let argv = [
            "plan",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--steps",
            "300",
            "--time",
            "10",
            "--quick-profile",
            "--out",
            plan_path.to_str().unwrap(),
        ];
        let out = cmd_plan(&parse(&argv)).unwrap();
        assert!(out.contains("actor_gen"));
        assert!(plan_path.is_file());

        let argv = [
            "run",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--iters",
            "1",
            "--quick-profile",
            "--plan",
            plan_path.to_str().unwrap(),
        ];
        let out = cmd_run(&parse(&argv)).unwrap();
        assert!(out.contains("throughput"));
    }

    /// Writes `plan` to a JSON file named `name` and returns its path.
    fn write_plan(name: &str, plan: &ExecutionPlan) -> String {
        let dir = std::env::temp_dir().join("real-cli-plan-check");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, serde_json::to_string(plan).unwrap()).unwrap();
        path.to_str().unwrap().to_string()
    }

    fn heuristic(argv: &[&str]) -> ExecutionPlan {
        experiment_from(&parse(argv))
            .unwrap()
            .plan_heuristic()
            .unwrap()
    }

    #[test]
    fn a_plan_on_meshes_outside_the_cluster_is_rejected() {
        let two_nodes = heuristic(&["estimate", "--nodes", "2", "--batch", "64"]);
        let path = write_plan("two-nodes.json", &two_nodes);
        let one_node = [
            "--nodes",
            "1",
            "--batch",
            "64",
            "--quick-profile",
            "--plan",
            &path,
        ];
        for cmd in ["estimate", "run"] {
            let argv: Vec<&str> = [cmd].iter().chain(&one_node).copied().collect();
            let result = if cmd == "run" {
                cmd_run(&parse(&argv))
            } else {
                cmd_estimate(&parse(&argv))
            };
            match result {
                Err(
                    e @ CliError::Plan {
                        error: PlanError::ForeignMesh(_),
                        ..
                    },
                ) => assert!(e.to_string().starts_with(&path), "{e}"),
                other => panic!("{cmd}: expected a foreign-mesh error, got {other:?}"),
            }
        }

        // A draft mesh outside the cluster is caught as well.
        let own = heuristic(&["estimate", "--nodes", "1", "--batch", "64"]);
        let gen = experiment_from(&parse(&["estimate"]))
            .unwrap()
            .graph()
            .find("actor_gen")
            .unwrap();
        let choice = real_core::real_dataflow::SpecChoice {
            config: SpecDecodeConfig {
                draft_model: ModelSpec::llama3_1b(),
                speculation_len: 4,
                acceptance_curve: AcceptanceCurve::Constant(0.8),
            },
            assignment: CallAssignment::new(
                DeviceMesh::sub_node(&ClusterSpec::h100(2), 1, 0, 2).unwrap(),
                ParallelStrategy::new(1, 2, 1, 1).unwrap(),
            )
            .unwrap(),
        };
        let path = write_plan(
            "foreign-draft.json",
            &own.with_spec(gen, Some(choice)).unwrap(),
        );
        let argv = [
            "estimate",
            "--nodes",
            "1",
            "--batch",
            "64",
            "--quick-profile",
            "--plan",
            &path,
        ];
        assert!(matches!(
            cmd_estimate(&parse(&argv)),
            Err(CliError::Plan {
                error: PlanError::ForeignMesh(id),
                ..
            }) if id == gen
        ));
    }

    #[test]
    fn a_plan_for_another_graph_is_rejected() {
        let ppo = heuristic(&["estimate", "--nodes", "2", "--batch", "64"]);
        let path = write_plan("ppo.json", &ppo);
        let argv = [
            "estimate",
            "--algo",
            "dpo",
            "--nodes",
            "2",
            "--batch",
            "64",
            "--quick-profile",
            "--plan",
            &path,
        ];
        match cmd_estimate(&parse(&argv)) {
            Err(CliError::Plan {
                error: PlanError::WrongLength { got, expected },
                ..
            }) => assert_eq!((got, expected), (6, 2)),
            other => panic!("expected a wrong-length error, got {other:?}"),
        }
    }

    #[test]
    fn a_valid_plan_file_estimates_byte_identically() {
        let base = [
            "estimate",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--quick-profile",
        ];
        let path = write_plan("valid.json", &heuristic(&base));
        let with_file: Vec<&str> = base.iter().copied().chain(["--plan", &path]).collect();
        let from_file = cmd_estimate(&parse(&with_file)).unwrap();
        assert_eq!(from_file, cmd_estimate(&parse(&base)).unwrap());
    }

    #[test]
    fn plan_thread_and_memo_flags_do_not_change_the_output() {
        let base = vec![
            "plan",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--steps",
            "300",
            "--time",
            "10",
            "--quick-profile",
            "--chains",
            "2",
        ];
        let with = |extra: &[&str]| {
            let mut argv = base.clone();
            argv.extend_from_slice(extra);
            cmd_plan(&parse(&argv)).unwrap()
        };
        // Same plan and search stats for any worker-thread count.
        let one = with(&["--threads", "1", "--memo-stats"]);
        let two = with(&["--threads", "2", "--memo-stats"]);
        assert!(one.contains("memo:"), "--memo-stats prints the cache line");
        assert_eq!(one, two);
        // Zero worker threads is rejected up front.
        assert!(matches!(
            mcmc_from(&parse(&["plan", "--threads", "0"])),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn speculative_memo_search_runs_any_chain_count() {
        let base = vec![
            "plan",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--steps",
            "300",
            "--time",
            "10",
            "--quick-profile",
            "--chains",
            "2",
            "--spec-decode",
            "--acceptance",
            "0.95",
        ];
        let with = |extra: &[&str]| {
            let mut argv = base.clone();
            argv.extend_from_slice(extra);
            cmd_plan(&parse(&argv)).unwrap()
        };
        // Speculation takes the same multi-chain path as the plain search:
        // the output, memo counters included, is the same for any thread
        // count.
        let one = with(&["--threads", "1", "--memo-stats"]);
        let two = with(&["--threads", "2", "--memo-stats"]);
        assert!(one.contains("speculation:"), "{one}");
        assert!(one.contains("memo:"), "{one}");
        assert_eq!(one, two);
    }

    #[test]
    fn an_unfittable_heuristic_plan_is_an_error() {
        for cmd in ["run", "profile", "estimate"] {
            let argv = [
                cmd,
                "--nodes",
                "1",
                "--actor",
                "70b",
                "--critic",
                "70b",
                "--quick-profile",
                "--heuristic",
            ];
            let e = dispatch(&parse(&argv)).unwrap_err();
            assert!(matches!(e, CliError::NoSymmetricPlan(_)), "{cmd}: {e}");
            assert_eq!(
                e.to_string(),
                "no symmetric plan fits: llama3-70b is too large for 8 GPUs"
            );
        }
    }

    #[test]
    fn a_graph_that_trains_nothing_gets_a_heuristic_plan() {
        let dir = std::env::temp_dir().join("real-cli-heuristic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("generate-only.json");
        let graph = r#"{"models": [{"role": "actor", "arch": "7b"}], "calls": [
            {"name": "actor_gen", "model": "actor", "kind": "gen", "batch": 32,
             "prompt_len": 512, "gen_len": 512, "outputs": ["seq"]}]}"#;
        std::fs::write(&path, graph).unwrap();
        let argv = [
            "run",
            "--graph",
            path.to_str().unwrap(),
            "--nodes",
            "1",
            "--iters",
            "1",
            "--quick-profile",
            "--heuristic",
        ];
        let out = dispatch(&parse(&argv)).unwrap();
        assert!(out.contains("actor_gen"), "{out}");
    }

    #[test]
    fn heuristic_run_works() {
        let argv = [
            "run",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--iters",
            "1",
            "--quick-profile",
            "--heuristic",
        ];
        let out = cmd_run(&parse(&argv)).unwrap();
        assert!(out.contains("end2end"));
    }

    #[test]
    fn profile_save_and_reuse_roundtrip() {
        let dir = std::env::temp_dir().join("real-cli-profiles");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("7b.json");
        let c = dir.join("7bc.json");
        cmd_profile_db(&parse(&[
            "profile-db",
            "--model",
            "7b",
            "--quick-profile",
            "--out",
            a.to_str().unwrap(),
        ]))
        .unwrap();
        // Profile the critic architecture via a tiny plan run that saves it.
        let mut profiler = Profiler::new(ClusterSpec::h100(1), ProfileConfig::quick(), 1);
        let db = profiler.profile(&ModelSpec::llama3_7b().critic());
        std::fs::write(&c, serde_json::to_string(&db).unwrap()).unwrap();

        let dbs = format!("{},{}", a.to_str().unwrap(), c.to_str().unwrap());
        let out = cmd_estimate(&parse(&[
            "estimate",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--quick-profile",
            "--profile-db",
            &dbs,
        ]))
        .unwrap();
        assert!(out.contains("TimeCost"));
        assert!(out.contains("feasible: true"));
    }

    #[test]
    fn estimate_without_plan_uses_heuristic() {
        let out = cmd_estimate(&parse(&[
            "estimate",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--quick-profile",
        ]))
        .unwrap();
        assert!(out.contains("actor_gen"));
        assert!(out.contains("MaxMem"));
    }

    #[test]
    fn run_writes_trace_and_metrics_and_stats_prints_them() {
        let dir = std::env::temp_dir().join("real-cli-obs");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let metrics_path = dir.join("metrics.json");
        let argv = [
            "run",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--iters",
            "1",
            "--quick-profile",
            "--steps",
            "300",
            "--time",
            "10",
            "--trace",
            trace_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
        ];
        let out = cmd_run(&parse(&argv)).unwrap();
        assert!(out.contains("throughput"));

        // The trace parses with serde_json and contains lane metadata,
        // nested spans, counter tracks, and flow arrows.
        let trace: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let events = trace.as_array().unwrap();
        for ph in ["M", "B", "E", "C", "s", "f"] {
            assert!(
                events.iter().any(|e| e["ph"].as_str() == Some(ph)),
                "missing phase {ph}"
            );
        }
        assert!(events
            .iter()
            .any(|e| e["name"].as_str() == Some("mem/node0/gpu0")));

        // The metrics snapshot covers both the run and the MCMC search.
        let snap: MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert!(snap
            .metrics
            .iter()
            .any(|e| e.name == "runtime/category_seconds"));
        assert!(snap.metrics.iter().any(|e| e.name == "search/steps"));
        assert!(snap.metrics.iter().any(|e| e.name == "search/energy"));

        let stats =
            cmd_stats(&parse(&["stats", "--file", metrics_path.to_str().unwrap()])).unwrap();
        assert!(stats.contains("runtime/iterations"));
        assert!(stats.contains("search/acceptance_rate"));
        assert!(stats.contains("search/energy"));
    }

    #[test]
    fn stats_renders_histogram_quantiles() {
        let dir = std::env::temp_dir().join("real-cli-stats");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quantiles.json");
        let mut m = MetricsRegistry::new();
        for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
            m.histogram_observe("demo/latency", &[], &[2.0, 5.0, 50.0], v);
        }
        std::fs::write(&path, serde_json::to_string(&m.snapshot()).unwrap()).unwrap();
        let out = cmd_stats(&parse(&["stats", "--file", path.to_str().unwrap()])).unwrap();
        // Golden rendering: the quantile columns interpolate within buckets
        // ((0,2](2) (2,5](2) (5,50](0) (50,inf)(1) for the samples above).
        for expected in ["p50", "p95", "p99", "2.7500", "50.0000", "demo/latency"] {
            assert!(out.contains(expected), "missing {expected:?} in:\n{out}");
        }
    }

    #[test]
    fn profile_attributes_makespan_and_gates_on_baseline() {
        let dir = std::env::temp_dir().join("real-cli-profile");
        std::fs::create_dir_all(&dir).unwrap();
        let report_path = dir.join("profile.json");
        let argv = [
            "profile",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--iters",
            "1",
            "--quick-profile",
            "--heuristic",
            "--out",
            report_path.to_str().unwrap(),
        ];
        let out = cmd_profile(&parse(&argv)).unwrap();
        for section in ["makespan", "generation", "training", "critical path"] {
            assert!(out.contains(section), "missing {section:?} in:\n{out}");
        }
        let report: real_core::real_obs::ProfileReport =
            serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
        // The acceptance bar: >= 95% of the makespan lands in named phases.
        assert!(
            report.attributed_fraction() >= 0.95,
            "attributed only {:.1}% of the makespan",
            report.attributed_fraction() * 100.0
        );
        assert!(!report.estimator_gap.is_empty());

        // Same seed, same flags: byte-identical report JSON (determinism).
        let json_argv: Vec<&str> = argv[..argv.len() - 2]
            .iter()
            .copied()
            .chain(["--json"])
            .collect();
        let a = cmd_profile(&parse(&json_argv)).unwrap();
        let b = cmd_profile(&parse(&json_argv)).unwrap();
        assert_eq!(a, b);

        // Checking a run against its own report passes...
        let mut check_argv = argv[..argv.len() - 2].to_vec();
        check_argv.extend([
            "--baseline",
            report_path.to_str().unwrap(),
            "--check",
            "--tolerance-pct",
            "5",
        ]);
        let out = cmd_profile(&parse(&check_argv)).unwrap();
        assert!(out.contains("baseline check OK"), "{out}");

        // ...and a 10% synthetic slowdown fails it.
        let mut slow = report.clone();
        slow.makespan *= 1.1;
        let slow_path = dir.join("slow-baseline.json");
        std::fs::write(&slow_path, serde_json::to_string(&slow).unwrap()).unwrap();
        let mut bad_argv = argv[..argv.len() - 2].to_vec();
        bad_argv.extend([
            "--baseline",
            slow_path.to_str().unwrap(),
            "--check",
            "--tolerance-pct",
            "5",
        ]);
        let err = cmd_profile(&parse(&bad_argv)).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid(m) if m.contains("makespan drifted")),
            "{err}"
        );
    }

    #[test]
    fn profile_analyzes_a_saved_trace() {
        let dir = std::env::temp_dir().join("real-cli-profile-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let argv = [
            "run",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--iters",
            "1",
            "--quick-profile",
            "--heuristic",
            "--trace",
            trace_path.to_str().unwrap(),
        ];
        cmd_run(&parse(&argv)).unwrap();
        let out = cmd_profile(&parse(&[
            "profile",
            "--trace",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("makespan"), "{out}");
        assert!(out.contains("generation"), "{out}");
    }

    #[test]
    fn profile_rejects_malformed_saved_traces() {
        let dir = std::env::temp_dir().join("real-cli-profile-bad-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let span = |ph: &str, ts: &str| {
            format!(r#"{{"ph":"{ph}","name":"k","cat":"compute","pid":0,"tid":0,"ts":{ts}}}"#)
        };
        let cases = [
            (
                "overflowing-ts",
                format!("[{}]", span("B", "1e400")),
                "non-finite ts",
            ),
            (
                "end-before-begin",
                format!("[{},{}]", span("B", "5"), span("E", "1")),
                "out-of-order",
            ),
            (
                "unclosed-begin",
                format!("[{}]", span("B", "1")),
                "left open",
            ),
        ];
        for (name, json, needle) in cases {
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, json).unwrap();
            let argv = ["profile", "--trace", path.to_str().unwrap()];
            match dispatch(&parse(&argv)) {
                Err(CliError::Invalid(m)) => assert!(m.contains(needle), "{name}: {m}"),
                other => panic!("{name}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn estimate_writes_algorithm1_metrics() {
        let dir = std::env::temp_dir().join("real-cli-obs");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics_path = dir.join("estimate.json");
        let out = cmd_estimate(&parse(&[
            "estimate",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--quick-profile",
            "--metrics",
            metrics_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("TimeCost"));
        let snap: MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert!(snap
            .metrics
            .iter()
            .any(|e| e.name == "estimator/queue_pops"));
        assert!(snap
            .metrics
            .iter()
            .any(|e| e.name == "estimator/makespan_seconds"));
    }

    #[test]
    fn run_with_faults_reports_degraded_mode_accounting() {
        let dir = std::env::temp_dir().join("real-cli-faults");
        std::fs::create_dir_all(&dir).unwrap();
        let faults_path = dir.join("faults.json");
        // One slowdown window wide enough to cover the whole short run, one
        // crash: the report must surface the injected-window count.
        let plan = FaultPlan::new(23)
            .slowdown(0, 0.0, 500.0, 3.0)
            .crash(3, 5.0, 10.0);
        std::fs::write(&faults_path, serde_json::to_string(&plan).unwrap()).unwrap();
        let argv = [
            "run",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--iters",
            "1",
            "--quick-profile",
            "--heuristic",
            "--faults",
            faults_path.to_str().unwrap(),
        ];
        let out = cmd_run(&parse(&argv)).unwrap();
        assert!(out.contains("throughput"));
        assert!(out.contains("faults: 2 injected"), "{out}");

        // Invalid plans are rejected with a pointer to the bad event.
        let bad = faults_path.with_file_name("bad.json");
        std::fs::write(
            &bad,
            serde_json::to_string(&FaultPlan::new(1).slowdown(0, 10.0, 5.0, 2.0)).unwrap(),
        )
        .unwrap();
        let argv = [
            "run",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--quick-profile",
            "--heuristic",
            "--faults",
            bad.to_str().unwrap(),
        ];
        let err = cmd_run(&parse(&argv)).unwrap_err();
        assert!(matches!(err, CliError::Invalid(_)), "{err}");
    }

    #[test]
    fn plan_checkpoint_resumes_through_replan() {
        let dir = std::env::temp_dir().join("real-cli-replan");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt_path = dir.join("ckpt.json");
        let plan_path = dir.join("resumed-plan.json");
        let workload = [
            "--nodes",
            "1",
            "--batch",
            "32",
            "--quick-profile",
            "--time",
            "10",
        ];
        let mut argv = vec!["plan", "--steps", "200"];
        argv.extend_from_slice(&workload);
        argv.extend_from_slice(&["--checkpoint", ckpt_path.to_str().unwrap()]);
        cmd_plan(&parse(&argv)).unwrap();
        assert!(ckpt_path.is_file());

        let mut argv = vec!["replan", "--from", ckpt_path.to_str().unwrap()];
        argv.extend_from_slice(&workload);
        argv.extend_from_slice(&["--steps", "400", "--out", plan_path.to_str().unwrap()]);
        let out = cmd_replan(&parse(&argv)).unwrap();
        assert!(out.contains("resumed from step 200 to step 400"), "{out}");
        assert!(plan_path.is_file());

        // A checkpoint for a different workload is rejected, not resumed.
        let mut argv = vec!["replan", "--from", ckpt_path.to_str().unwrap()];
        argv.extend_from_slice(&workload);
        argv.extend_from_slice(&["--algo", "dpo"]);
        let err = cmd_replan(&parse(&argv)).unwrap_err();
        assert!(matches!(err, CliError::Invalid(_)), "{err}");
    }

    #[test]
    fn replan_requires_from_flag() {
        assert!(matches!(
            cmd_replan(&parse(&["replan"])),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn run_with_replan_switches_off_a_dead_worker() {
        let dir = std::env::temp_dir().join("real-cli-replan-run");
        std::fs::create_dir_all(&dir).unwrap();
        let faults_path = dir.join("dead-worker.json");
        // GPU 3 dies mid-generation and never restarts within the run's
        // horizon: the retry-only path would stall for ~1e6 virtual seconds.
        let plan = FaultPlan::new(23).crash(3, 2.0, 1.0e6);
        std::fs::write(&faults_path, serde_json::to_string(&plan).unwrap()).unwrap();
        let argv = [
            "run",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--iters",
            "1",
            "--quick-profile",
            "--heuristic",
            "--faults",
            faults_path.to_str().unwrap(),
            "--replan",
            "--replan-steps",
            "300",
        ];
        let out = cmd_run(&parse(&argv)).unwrap();
        assert!(out.contains("replan:"), "{out}");
        assert!(out.contains("1 switched"), "{out}");
    }

    #[test]
    fn replan_with_async_offpolicy_is_rejected() {
        let graph = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/graphs/async-ppo.json"
        );
        let base = [
            "--nodes",
            "1",
            "--batch",
            "32",
            "--quick-profile",
            "--replan",
        ];
        for cmd in ["run", "profile"] {
            let mut by_flag = vec![cmd, "--async-offpolicy"];
            by_flag.extend(base);
            let mut by_spec = vec![cmd, "--graph", graph];
            by_spec.extend(base);
            for argv in [by_flag, by_spec] {
                let args = parse(&argv);
                let err = if cmd == "run" {
                    cmd_run(&args)
                } else {
                    cmd_profile(&args)
                }
                .unwrap_err();
                assert!(
                    matches!(&err, CliError::Invalid(m) if m.contains("--replan")),
                    "{argv:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn stats_requires_file_flag() {
        assert!(matches!(
            cmd_stats(&parse(&["stats"])),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn advise_sweeps_and_recommends() {
        let out = cmd_advise(&parse(&[
            "advise",
            "--max-nodes",
            "2",
            "--batch",
            "64",
            "--steps",
            "400",
            "--time",
            "10",
            "--quick-profile",
        ]))
        .unwrap();
        assert!(out.contains("recommendation"));
        assert!(out.contains("nodes"));
    }

    #[test]
    fn dispatch_rejects_unknown_command() {
        let e = dispatch(&parse(&["frobnicate"])).unwrap_err();
        assert!(matches!(e, CliError::Invalid(_)));
    }

    #[test]
    fn help_is_printed() {
        let out = dispatch(&parse(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn sched_requires_tenants_flag() {
        let e = cmd_sched(&parse(&["sched"])).unwrap_err();
        assert!(matches!(e, CliError::Invalid(_)));
    }

    #[test]
    fn sched_dry_run_prints_allocations_without_running() {
        let out = cmd_sched(&parse(&[
            "sched",
            "--tenants",
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/tenants.json"),
            "--dry-run",
            "--steps",
            "100",
            "--score-steps",
            "150",
        ]))
        .unwrap();
        for tenant in ["prod", "dev", "nightly"] {
            assert!(out.contains(tenant), "dry-run lists `{tenant}`");
        }
        assert!(out.contains("est step (s)"));
        assert!(out.contains("weighted makespan"));
    }

    #[test]
    fn sched_runs_tenants_and_writes_observability() {
        let dir = std::env::temp_dir().join("real-cli-sched");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("tenants.json");
        std::fs::write(
            &spec_path,
            r#"{
              "nodes": 2,
              "seed": 4,
              "tenants": [
                {"name": "prod", "algo": "dpo", "actor": "7b", "batch": 64, "priority": 2.0},
                {"name": "dev",  "algo": "dpo", "actor": "7b", "batch": 32}
              ]
            }"#,
        )
        .unwrap();
        let trace_path = dir.join("trace.json");
        let metrics_path = dir.join("metrics.json");
        let argv = [
            "sched",
            "--tenants",
            spec_path.to_str().unwrap(),
            "--steps",
            "100",
            "--score-steps",
            "150",
            "--trace",
            trace_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
        ];
        let out = cmd_sched(&parse(&argv)).unwrap();
        assert!(out.contains("prod") && out.contains("dev"));
        assert!(out.contains("fairness"));
        // Stretch / queue-wait percentile rows ride along the report.
        assert!(
            out.contains("stretch") && out.contains("queue-wait-seconds"),
            "{out}"
        );

        // Chrome trace has one process group per tenant.
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&trace).unwrap();
        let names: Vec<&str> = parsed
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["name"].as_str() == Some("process_name"))
            .filter_map(|e| e["args"]["name"].as_str())
            .collect();
        assert!(names.contains(&"tenant:prod") && names.contains(&"tenant:dev"));

        // The saved trace profiles offline like a solo run's: DPO tenants
        // attribute their makespan to training and inference calls.
        let profile = cmd_profile(&parse(&[
            "profile",
            "--trace",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(profile.contains("makespan"), "{profile}");
        assert!(profile.contains("training"), "{profile}");
        assert!(profile.contains("tenant:prod/gpu"), "{profile}");

        // Metrics snapshot carries the sched/* namespace.
        let snap: MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert!(snap
            .metrics
            .iter()
            .any(|e| e.name == "sched/fairness_index"));
        assert!(snap.metrics.iter().any(|e| e.name == "sched/stretch"
            && e.labels.iter().any(|(k, v)| k == "tenant" && v == "prod")));
        assert!(snap.metrics.iter().any(|e| e.name == "sched/stretch_hist"));
        assert!(snap
            .metrics
            .iter()
            .any(|e| e.name == "sched/queue_wait_hist"));

        // Seeded runs replay: the JSON report is byte-identical.
        let mut json_argv = vec!["sched", "--tenants", spec_path.to_str().unwrap()];
        json_argv.extend(["--steps", "100", "--score-steps", "150", "--json"]);
        let a = cmd_sched(&parse(&json_argv)).unwrap();
        let b = cmd_sched(&parse(&json_argv)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn serve_requires_workload_flag() {
        let e = cmd_serve(&parse(&["serve"])).unwrap_err();
        assert!(matches!(e, CliError::Invalid(_)));
    }

    #[test]
    fn serve_runs_a_workload_and_writes_observability() {
        let dir = std::env::temp_dir().join("real-cli-serve");
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("workload.json");
        std::fs::write(
            &spec_path,
            r#"{
              "nodes": 1,
              "seed": 3,
              "horizon_secs": 600,
              "arrivals": {"Trace": {"times_secs": [0.0, 30.0], "templates": [0, 0]}},
              "templates": [
                {"tenant": {"name": "train", "algo": "dpo", "actor": "7b",
                            "batch": 32, "iterations": 1}}
              ]
            }"#,
        )
        .unwrap();
        let trace_path = dir.join("trace.json");
        let metrics_path = dir.join("metrics.json");
        let argv = [
            "serve",
            "--workload",
            spec_path.to_str().unwrap(),
            "--probe-steps",
            "60",
            "--trace",
            trace_path.to_str().unwrap(),
            "--metrics",
            metrics_path.to_str().unwrap(),
        ];
        let out = cmd_serve(&parse(&argv)).unwrap();
        assert!(out.contains("train-0") && out.contains("train-1"), "{out}");
        assert!(
            out.contains("stretch") && out.contains("queue-wait-seconds"),
            "{out}"
        );
        assert!(out.contains("arrivals 2"), "{out}");

        // Chrome trace has one process group per arrival.
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&trace).unwrap();
        let names: Vec<&str> = parsed
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["name"].as_str() == Some("process_name"))
            .filter_map(|e| e["args"]["name"].as_str())
            .collect();
        assert!(names.contains(&"tenant:train-0") && names.contains(&"tenant:train-1"));

        // Metrics snapshot carries the serve/* namespace.
        let snap: MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert!(snap.metrics.iter().any(|e| e.name == "serve/arrivals"));
        assert!(snap.metrics.iter().any(|e| e.name == "serve/stretch_hist"));

        // Seeded runs replay: the JSON report is byte-identical, and the
        // --admit-all ablation flag parses and runs.
        let base = ["serve", "--workload", spec_path.to_str().unwrap()];
        let mut json_argv = base.to_vec();
        json_argv.extend(["--probe-steps", "60", "--json"]);
        let a = cmd_serve(&parse(&json_argv)).unwrap();
        let b = cmd_serve(&parse(&json_argv)).unwrap();
        assert_eq!(a, b);
        let mut ablate = base.to_vec();
        ablate.extend(["--probe-steps", "60", "--admit-all", "--json"]);
        let c = cmd_serve(&parse(&ablate)).unwrap();
        assert!(c.contains("\"rejected\": 0"), "{c}");
    }

    #[test]
    fn spec_decode_flags_surface_speculation_and_no_spec_suppresses_it() {
        let base = vec![
            "plan",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--steps",
            "300",
            "--time",
            "10",
            "--quick-profile",
        ];
        let with = |extra: &[&str]| {
            let mut argv = base.clone();
            argv.extend_from_slice(extra);
            cmd_plan(&parse(&argv)).unwrap()
        };
        // High constant acceptance: the search keeps a draft and the plan
        // printout grows a speculation table plus a speedup line.
        let spec = with(&["--spec-decode", "--acceptance", "0.95"]);
        assert!(spec.contains("speculative decoding:"), "{spec}");
        assert!(
            spec.contains("speculation:") && spec.contains("plain ("),
            "{spec}"
        );
        // --no-spec wins over every speculation flag: byte-identical to the
        // default planner output (inertness).
        assert_eq!(
            with(&["--spec-decode", "--acceptance", "0.95", "--no-spec"]),
            with(&[])
        );
        // Bad values are rejected up front, not deep in the search.
        let bad = |extra: &[&str]| {
            let mut argv = base.clone();
            argv.extend_from_slice(extra);
            cmd_plan(&parse(&argv))
        };
        assert!(matches!(
            bad(&["--acceptance", "1.5"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            bad(&["--draft-model", "3b"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            bad(&["--spec-decode", "--spec-k", "0"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn memo_roundtrips_across_plan_invocations() {
        let base = vec![
            "plan",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--steps",
            "300",
            "--time",
            "10",
            "--quick-profile",
        ];
        let with = |extra: &[&str]| {
            let mut argv = base.clone();
            argv.extend_from_slice(extra);
            cmd_plan(&parse(&argv)).unwrap()
        };
        // --memo-stats adds its counter line and leaves the plan table as
        // the default planner prints it (the cache is invisible).
        let stats = with(&["--memo-stats"]);
        assert!(stats.contains("memo:"), "{stats}");
        let table = |out: &str| {
            out.lines()
                .take_while(|l| !l.starts_with("search:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table(&stats), table(&with(&[])));
    }

    #[test]
    fn run_honours_memo_flags_without_speculation() {
        let out = cmd_run(&parse(&[
            "run",
            "--nodes",
            "1",
            "--batch",
            "32",
            "--iters",
            "1",
            "--steps",
            "200",
            "--quick-profile",
            "--memo-stats",
        ]))
        .unwrap();
        assert!(out.contains("memo:"), "{out}");
    }
}
