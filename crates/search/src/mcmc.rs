//! Metropolis–Hastings search over execution plans (§5.2).
//!
//! Plans are sampled from the energy distribution
//! `P(p) ∝ exp(-β · cost(G_p))` by mutating one random call's assignment
//! per step and accepting with probability `min(1, P(p')/P(p))`. The best
//! *memory-feasible* plan by `TimeCost` seen anywhere along the chain is
//! the search output.
//!
//! One practical refinement over the paper's formula: the energy is the
//! *relative* cost change `β · (c' − c) / c`, which makes the temperature
//! scale-free — the same β works for a 5-second 7B iteration and a
//! 500-second 70B one, and for OOM-penalized costs (×α) the chain still
//! random-walks among infeasible plans instead of freezing.
//!
//! [`parallel_search`] runs independent chains on multiple cores and keeps
//! the global best — the multi-core extension the paper mentions as future
//! work. [`parallel_search_on`] decouples the logical chain count from the
//! worker-thread count: chains are seeded from RNG substreams of the
//! caller's seed and merged in chain order, so the chosen plan is
//! bit-identical whatever the thread count.
//!
//! A space with speculation options ([`SearchSpace::with_speculation`])
//! adds a second move kind — set, re-draw or clear one generation call's
//! draft/verify choice — and a per-generation-call sweep over the menu to
//! the polish. Without such options neither draws randomness nor prices
//! anything, so the chain is exactly the assignment-only chain.
//!
//! # Pricing
//!
//! Every search prices proposals through one [`PlanPricer`]: the
//! augmented-graph structure is built once per chain, per-call durations
//! and realloc/transfer edge prices come from a [`CostMemo`] keyed by
//! `(call, assignment)`, and the peak-memory check runs as an interval
//! sweep instead of a cluster-sized per-GPU scan. The cached values are
//! outputs of the exact pricing functions [`Estimator::cost`] calls, so a
//! search's plan and prices are bit-identical to the from-scratch
//! [`search_reference`] chain — `docs/SEARCH.md` spells out the full
//! contract. The chain rejects a proposal without pricing it when its
//! [`PlanPricer::cost_lower_bound_perturbed`] already loses the Metropolis
//! draw — or when the bound times the OOM penalty α loses it and the
//! proposal does not fit device memory — and the post-chain polish skips
//! every candidate whose bound (penalized likewise when it does not fit)
//! already reaches the best cost; the reference chain does neither.
//!
//! Per-option call durations, which the greedy start and the polish read
//! for every option of the space, come from one dense `DurationTable`
//! aligned with [`SearchSpace::options`], priced straight through the
//! [`Estimator`] and kept out of the memo.

use crate::checkpoint::{project_onto, ChainState, SearchCheckpoint};
use crate::greedy::DurationTable;
use crate::space::{PruneLevel, SearchSpace};
use real_cluster::{partition, DeviceMesh};
use real_dataflow::{CallAssignment, CallId, ExecutionPlan};
use real_estimator::{penalized, CostMemo, Estimator, MemoStats, PlanPricer, OOM_PENALTY};
use real_obs::MetricsRegistry;
use real_util::DeterministicRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Points kept per chain in the energy / best-so-far telemetry series
/// (later points are dropped and counted once a series fills up).
pub const TELEMETRY_SERIES_CAPACITY: usize = 4096;

/// MCMC configuration.
#[derive(Debug, Clone)]
pub struct McmcConfig {
    /// Sampling temperature β over the relative cost change (higher =
    /// greedier). Values around 4–8 accept mild regressions while rejecting
    /// leaps back into OOM territory.
    pub beta: f64,
    /// Hard step budget.
    pub max_steps: u64,
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// RNG seed.
    pub seed: u64,
    /// Record `(elapsed_secs, best_time_cost)` whenever the best improves
    /// (Fig. 13's improvement-ratio curves).
    pub record_trace: bool,
}

impl Default for McmcConfig {
    fn default() -> Self {
        Self {
            beta: 6.0,
            max_steps: 200_000,
            time_limit: Duration::from_secs(60),
            seed: 1,
            record_trace: true,
        }
    }
}

/// Search output: the best plan plus chain statistics.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best memory-feasible plan found (falls back to the overall best-cost
    /// plan if nothing feasible was visited).
    pub best_plan: ExecutionPlan,
    /// `TimeCost` of the best plan.
    pub best_time_cost: f64,
    /// Whether the best plan fits device memory.
    pub feasible: bool,
    /// Steps taken.
    pub steps: u64,
    /// Accepted transitions.
    pub accepted: u64,
    /// `(elapsed_secs, best_time_cost)` improvement trace.
    pub trace: Vec<(f64, f64)>,
    /// Per-step chain telemetry, keyed by a `chain=<seed>` label: the
    /// `search/energy` and `search/best_time_cost` series over steps, the
    /// `search/steps` / `search/accepted` / `search/oom_penalty_hits`
    /// counters plus the `search/acceptance_rate` gauge, the
    /// `search/bound_rejected` counter (steps rejected by the pricer's
    /// lower bound, or by the penalized bound and a failed memory check,
    /// without being priced; `search/oom_penalty_hits` counts the
    /// proposals found not to fit, priced or not), and the polish's
    /// `search/polish_priced` / `search/polish_pruned` candidate counters
    /// (pruned: skipped by the pricer's lower bound).
    pub telemetry: MetricsRegistry,
    /// Resumable chain state, captured at the end of the chain loop (the
    /// polish refines only `best_plan`). Serialize via
    /// [`SearchResult::checkpoint`] to continue this search later.
    pub chain: ChainState,
    /// Memo-cache counters accumulated by this search (all zero for
    /// [`search_reference`]); for a merged parallel result, the sum over
    /// chains.
    pub memo: MemoStats,
}

impl SearchResult {
    /// Acceptance rate of the chain.
    pub fn acceptance_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.accepted as f64 / self.steps as f64
        }
    }

    /// Packages the resumable chain state and improvement trace for
    /// [`SearchCheckpoint::save`].
    pub fn checkpoint(&self) -> SearchCheckpoint {
        SearchCheckpoint {
            chain: self.chain.clone(),
            trace: self.trace.clone(),
        }
    }
}

/// Where a chain starts from.
enum ChainStart<'a> {
    /// The greedy initial plan (the paper's §5.2 setup).
    Greedy,
    /// A caller-supplied plan, e.g. an incumbent projected onto a shrunken
    /// space — the warm start a re-plan uses.
    Warm(&'a ExecutionPlan),
    /// A saved chain: restored RNG position, step count, incumbent and
    /// best. Costs are re-evaluated under the *current* estimator, so a
    /// resume under a degraded-health estimator re-ranks correctly.
    Resume(&'a SearchCheckpoint),
}

/// Runs one Metropolis–Hastings chain from the greedy initial plan.
pub fn search(est: &Estimator, space: &SearchSpace, cfg: &McmcConfig) -> SearchResult {
    search_with_memo(est, space, cfg, &mut CostMemo::new())
}

/// [`search`] sharing a caller-owned [`CostMemo`]: the search prices through
/// `memo` and leaves whatever it learned there. This is how the scheduler's
/// per-(tenant, mesh) candidate probes amortize pricing across probes —
/// nested meshes revisit the same `(call, assignment)` keys, so later
/// probes run mostly on hits.
pub fn search_with_memo(
    est: &Estimator,
    space: &SearchSpace,
    cfg: &McmcConfig,
    memo: &mut CostMemo,
) -> SearchResult {
    run_chain(est, space, cfg, ChainStart::Greedy, memo)
}

/// Runs one chain warm-started from `incumbent`, first projected onto
/// `space` via [`project_onto`] (assignments on vanished meshes are mapped
/// to their nearest surviving option), pricing through `memo` as
/// [`search_with_memo`] does. Used by the re-plan loop, where the incumbent
/// is the plan that was executing when a fault hit.
pub fn search_warm(
    est: &Estimator,
    space: &SearchSpace,
    cfg: &McmcConfig,
    incumbent: &ExecutionPlan,
    memo: &mut CostMemo,
) -> SearchResult {
    let start = project_onto(incumbent, est, space);
    run_chain(est, space, cfg, ChainStart::Warm(&start), memo)
}

/// Resumes a checkpointed chain: the RNG position, step count, incumbent,
/// and best are restored, then the chain continues while `steps <
/// cfg.max_steps`. The annealing schedule follows the *new* budget, so a
/// resumed chain is not bit-equal to an uninterrupted longer run unless the
/// budgets match; it is, however, fully deterministic given `(checkpoint,
/// cfg)`.
pub fn resume(
    est: &Estimator,
    space: &SearchSpace,
    cfg: &McmcConfig,
    checkpoint: &SearchCheckpoint,
) -> SearchResult {
    run_chain(
        est,
        space,
        cfg,
        ChainStart::Resume(checkpoint),
        &mut CostMemo::new(),
    )
}

/// A search confined to the GPUs of `mesh`: the space holds only meshes
/// nested in it (pruned at `prune`), and one chain runs from `start`
/// (projected onto that space, as in [`search_warm`]) or, without one, from
/// the greedy plan. Returns the result only when its best plan fits device
/// memory and stays inside `mesh`; its `best_time_cost` is then the plan's
/// step time on the allocation, priced once by the search. This is the
/// per-(tenant, mesh) candidate probe behind the scheduler's allocation
/// search and serving's template pricing.
pub fn search_within(
    est: &Estimator,
    mesh: &DeviceMesh,
    prune: PruneLevel,
    cfg: &McmcConfig,
    start: Option<&ExecutionPlan>,
    memo: &mut CostMemo,
) -> Option<SearchResult> {
    let cluster = est.cluster();
    let inner = partition::meshes_within(cluster, mesh);
    let space = SearchSpace::try_build_on(cluster, est.graph(), prune, &inner).ok()?;
    let result = match start {
        Some(plan) => search_warm(est, &space, cfg, plan, memo),
        None => search_with_memo(est, &space, cfg, memo),
    };
    let plan = &result.best_plan;
    let contained = plan
        .assignments()
        .iter()
        .all(|a| mesh.contains_mesh(&a.mesh))
        && plan
            .spec_choices()
            .all(|(_, c)| mesh.contains_mesh(&c.assignment.mesh));
    (result.feasible && contained).then_some(result)
}

/// [`search`] pricing every query from scratch through the [`Estimator`]
/// instead of a [`PlanPricer`]: the reference oracle the pricer is held
/// bit-identical to, and the baseline of the `search_throughput` benchmark.
/// Not a planning path — it is only slower.
pub fn search_reference(est: &Estimator, space: &SearchSpace, cfg: &McmcConfig) -> SearchResult {
    run_chain_on(&mut Reference(est), est, space, cfg, ChainStart::Greedy)
}

/// What a chain prices plans through: the memoized [`PlanPricer`], or the
/// from-scratch [`Reference`]. Both return bit-identical prices for every
/// query the chain makes; only the pricer bounds polish candidates.
trait ChainPricer {
    fn cost_checked(&mut self, plan: &ExecutionPlan) -> (f64, bool);
    fn time_cost(&mut self, plan: &ExecutionPlan) -> f64;
    fn mem_ok(&mut self, plan: &ExecutionPlan) -> bool;

    fn cost(&mut self, plan: &ExecutionPlan) -> f64 {
        self.cost_checked(plan).0
    }

    /// Whether `plan` with `call` reassigned to `a` fits device memory.
    fn mem_ok_perturbed(&mut self, plan: &ExecutionPlan, call: CallId, a: CallAssignment) -> bool {
        self.mem_ok(&perturbed(plan, call, a))
    }

    /// `TimeCost` of `plan` with `call` reassigned to `a`. With
    /// [`ChainPricer::mem_ok_perturbed`] it prices a one-call
    /// perturbation — the proposal shape — as `penalized(time, fits)`.
    fn time_cost_perturbed(
        &mut self,
        plan: &ExecutionPlan,
        call: CallId,
        a: CallAssignment,
    ) -> f64 {
        self.time_cost(&perturbed(plan, call, a))
    }

    /// A lower bound on [`ChainPricer::time_cost_perturbed`] of the same
    /// arguments, for gating proposals. The default bounds nothing, so a
    /// chain without an override prices every proposal.
    fn cost_lower_bound_perturbed(
        &mut self,
        _plan: &ExecutionPlan,
        _call: CallId,
        _a: CallAssignment,
    ) -> f64 {
        f64::NEG_INFINITY
    }

    /// The polish's pruning thresholds `(d*, d*_α)` for `call` against
    /// `target`: a candidate whose call-node duration in `plan` reaches
    /// `d*` costs `>= target`, and so does one that reaches `d*_α` and
    /// does not fit device memory. The default bounds nothing (`None`), so
    /// a chain without an override prices every polish candidate.
    fn polish_thresholds(
        &mut self,
        _plan: &ExecutionPlan,
        _call: CallId,
        _target: f64,
    ) -> Option<(f64, f64)> {
        None
    }

    fn memo_stats(&self) -> MemoStats {
        MemoStats::default()
    }
}

impl ChainPricer for PlanPricer<'_> {
    fn cost_checked(&mut self, plan: &ExecutionPlan) -> (f64, bool) {
        PlanPricer::cost_checked(self, plan)
    }

    fn time_cost(&mut self, plan: &ExecutionPlan) -> f64 {
        PlanPricer::time_cost(self, plan)
    }

    fn mem_ok(&mut self, plan: &ExecutionPlan) -> bool {
        PlanPricer::mem_ok(self, plan)
    }

    /// Priced without materializing the perturbed plan.
    fn mem_ok_perturbed(&mut self, plan: &ExecutionPlan, call: CallId, a: CallAssignment) -> bool {
        PlanPricer::mem_ok_perturbed(self, plan, call, a)
    }

    /// Priced without materializing the perturbed plan.
    fn time_cost_perturbed(
        &mut self,
        plan: &ExecutionPlan,
        call: CallId,
        a: CallAssignment,
    ) -> f64 {
        PlanPricer::time_cost_perturbed(self, plan, call, a)
    }

    fn cost_lower_bound_perturbed(
        &mut self,
        plan: &ExecutionPlan,
        call: CallId,
        a: CallAssignment,
    ) -> f64 {
        PlanPricer::cost_lower_bound_perturbed(self, plan, call, a)
    }

    fn polish_thresholds(
        &mut self,
        plan: &ExecutionPlan,
        call: CallId,
        target: f64,
    ) -> Option<(f64, f64)> {
        Some(self.lower_bound_thresholds(plan, call, target))
    }

    fn memo_stats(&self) -> MemoStats {
        PlanPricer::memo_stats(self)
    }
}

/// `plan` with `call` reassigned to `a`.
fn perturbed(plan: &ExecutionPlan, call: CallId, a: CallAssignment) -> ExecutionPlan {
    plan.with_assignment(call, a)
        .expect("options are internally consistent")
}

/// The from-scratch pricing behind [`search_reference`].
struct Reference<'a>(&'a Estimator);

impl ChainPricer for Reference<'_> {
    fn cost_checked(&mut self, plan: &ExecutionPlan) -> (f64, bool) {
        self.0.cost_checked(plan)
    }

    fn time_cost(&mut self, plan: &ExecutionPlan) -> f64 {
        self.0.time_cost(plan)
    }

    fn mem_ok(&mut self, plan: &ExecutionPlan) -> bool {
        self.0.mem_ok(plan)
    }
}

/// Runs one chain through a [`PlanPricer`] over `memo`, leaving the
/// learned entries in `memo`.
fn run_chain(
    est: &Estimator,
    space: &SearchSpace,
    cfg: &McmcConfig,
    start_from: ChainStart,
    memo: &mut CostMemo,
) -> SearchResult {
    let mut pricer = PlanPricer::with_memo(est, std::mem::take(memo));
    let result = run_chain_on(&mut pricer, est, space, cfg, start_from);
    *memo = pricer.into_memo();
    result
}

fn run_chain_on(
    pricer: &mut impl ChainPricer,
    est: &Estimator,
    space: &SearchSpace,
    cfg: &McmcConfig,
    start_from: ChainStart,
) -> SearchResult {
    let start = Instant::now();
    let n_calls = space.n_calls();
    let memo_before = pricer.memo_stats();
    let mut durations = DurationTable::new(est, space);

    // A chain over a speculation space draws from its own substream: the
    // speculative search runs it after a plain chain of the same seed, and
    // sharing the plain chain's stream would replay its draws.
    let stream = if space.spec_options().is_empty() {
        "mcmc"
    } else {
        "specsearch"
    };
    let (mut rng, mut current, mut steps, mut accepted, prior_best, mut trace) = match start_from {
        ChainStart::Greedy => (
            DeterministicRng::from_seed(cfg.seed).derive(stream),
            durations.greedy_plan(),
            0,
            0,
            None,
            Vec::new(),
        ),
        ChainStart::Warm(plan) => (
            DeterministicRng::from_seed(cfg.seed).derive(stream),
            plan.clone(),
            0,
            0,
            None,
            Vec::new(),
        ),
        ChainStart::Resume(ckpt) => (
            DeterministicRng::from_state(ckpt.chain.rng),
            ckpt.chain.incumbent.clone(),
            ckpt.chain.steps,
            ckpt.chain.accepted,
            Some(ckpt.chain.best.clone()),
            ckpt.trace.clone(),
        ),
    };
    let mut current_cost = pricer.cost(&current);

    let chain = cfg.seed.to_string();
    let labels: [(&str, &str); 1] = [("chain", chain.as_str())];
    let mut telemetry = MetricsRegistry::new();

    // The penalized §5.2 cost already orders infeasible plans after
    // feasible ones (×α), so tracking the best by penalized cost needs just
    // one estimator call per step.
    let (mut best_plan, mut best_cost) = match prior_best {
        Some(best) => {
            let cost = pricer.cost(&best);
            (best, cost)
        }
        None => (current.clone(), current_cost),
    };
    if cfg.record_trace && trace.is_empty() {
        trace.push((0.0, pricer.time_cost(&best_plan)));
    }

    let mut bound_rejected = 0u64;
    while steps < cfg.max_steps && start.elapsed() < cfg.time_limit {
        steps += 1;
        let proposal = propose(&mut rng, space, &current);

        // Metropolis acceptance over the scale-free relative energy, with a
        // linear annealing schedule: the chain explores early and freezes
        // toward the step budget. Pricing draws no randomness, so drawing
        // `u` before it leaves the RNG stream unchanged, and a proposal
        // whose lower bound already loses to `u` is rejected unpriced.
        // An assignment move is priced as a one-call perturbation of the
        // incumbent, memory first: one that does not fit costs
        // `fl(TimeCost · α)`, at least `fl(bound · α)`, so when that
        // penalized bound loses too it is rejected without Algorithm 1.
        let progress = steps as f64 / cfg.max_steps as f64;
        let beta = cfg.beta * (1.0 + 3.0 * progress);
        let u = rng.uniform();
        let loses = |bound: f64| bound_rejects(u, accept_weight(beta, bound, current_cost));
        let (proposal_cost, oom_penalized) = match &proposal {
            Proposal::Assign(call, a) => {
                let bound = pricer.cost_lower_bound_perturbed(&current, *call, *a);
                if loses(bound) {
                    (None, false)
                } else {
                    let fits = pricer.mem_ok_perturbed(&current, *call, *a);
                    if !fits && loses(bound * OOM_PENALTY) {
                        (None, true)
                    } else {
                        let time = pricer.time_cost_perturbed(&current, *call, *a);
                        let (cost, oom) = penalized(time, fits);
                        (Some(cost), oom)
                    }
                }
            }
            Proposal::Spec(plan) => {
                let (cost, oom) = pricer.cost_checked(plan);
                (Some(cost), oom)
            }
        };
        if proposal_cost.is_none() {
            bound_rejected += 1;
        }
        if oom_penalized {
            telemetry.counter_inc("search/oom_penalty_hits", &labels);
        }
        if let Some(proposal_cost) =
            proposal_cost.filter(|&c| u < accept_weight(beta, c, current_cost).min(1.0))
        {
            current = match proposal {
                Proposal::Assign(call, a) => current
                    .with_assignment(call, a)
                    .expect("options are internally consistent"),
                Proposal::Spec(plan) => plan,
            };
            current_cost = proposal_cost;
            accepted += 1;

            if current_cost < best_cost {
                best_plan = current.clone();
                best_cost = current_cost;
                let best_time = pricer.time_cost(&best_plan);
                if cfg.record_trace {
                    trace.push((start.elapsed().as_secs_f64(), best_time));
                }
                telemetry.series_push(
                    "search/best_time_cost",
                    &labels,
                    TELEMETRY_SERIES_CAPACITY,
                    steps as f64,
                    best_time,
                );
            }
        }
        telemetry.series_push(
            "search/energy",
            &labels,
            TELEMETRY_SERIES_CAPACITY,
            steps as f64,
            current_cost,
        );
    }

    // Capture the resumable chain state *before* the polish: the polish
    // only refines the returned best plan, so a resume re-enters the chain
    // exactly where the sampler stopped.
    let chain_state = ChainState {
        seed: cfg.seed,
        max_steps: cfg.max_steps,
        incumbent: current.clone(),
        incumbent_cost: current_cost,
        best: best_plan.clone(),
        best_cost,
        rng: rng.state(),
        steps,
        accepted,
    };

    // Coordinate-descent polish: sweep the calls, replacing each assignment
    // with its best alternative while the others stay fixed, then each
    // speculating call's choice with its best menu option or plain decode.
    // Converges to a local optimum of the same cost the chain sampled;
    // bounded by the remaining wall-clock budget. An assignment is taken
    // only at a strictly lower cost and the pricer's lower bound never
    // exceeds the cost, so skipping every candidate whose bound reaches
    // `best_cost` takes the same moves in the same order as pricing them
    // all; so does skipping one that does not fit once `fl(bound · α)`
    // reaches it. The bound is monotone in the candidate's own duration, so
    // "bound reaches `best_cost`" is exactly "duration reaches a per-(call,
    // best_cost) threshold", and likewise for the penalized bound.
    //
    // A sweep that comes back to the (call, option) position of the last
    // assignment move with no move in between has checked every candidate
    // against the final plan, so the polish stops there; a speculation move
    // changes the plan and clears the mark.
    let (mut polish_priced, mut polish_pruned) = (0u64, 0u64);
    let mut last_move: Option<(usize, usize)> = None;
    let mut improved = true;
    'polish: while improved && start.elapsed() < cfg.time_limit {
        improved = false;
        for call in 0..n_calls {
            if start.elapsed() >= cfg.time_limit {
                break;
            }
            let call = CallId(call);
            let row = durations.row(call, best_plan.spec_choice(call));
            let mut thresholds = pricer.polish_thresholds(&best_plan, call, best_cost);
            for (i, &opt) in space.options(call.0).iter().enumerate() {
                if last_move == Some((call.0, i)) {
                    break 'polish;
                }
                if opt == *best_plan.assignment(call) {
                    continue;
                }
                if thresholds.is_some_and(|(d_star, _)| row[i] >= d_star) {
                    polish_pruned += 1;
                    continue;
                }
                let fits = pricer.mem_ok_perturbed(&best_plan, call, opt);
                if !fits && thresholds.is_some_and(|(_, d_star_oom)| row[i] >= d_star_oom) {
                    polish_pruned += 1;
                    continue;
                }
                polish_priced += 1;
                let time = pricer.time_cost_perturbed(&best_plan, call, opt);
                let (cost, _) = penalized(time, fits);
                if cost < best_cost {
                    best_plan = best_plan
                        .with_assignment(call, opt)
                        .expect("options are internally consistent");
                    best_cost = cost;
                    improved = true;
                    last_move = Some((call.0, i));
                    thresholds = pricer.polish_thresholds(&best_plan, call, best_cost);
                    if cfg.record_trace {
                        trace.push((start.elapsed().as_secs_f64(), pricer.time_cost(&best_plan)));
                    }
                }
            }
        }
        // Speculation sweep: plain decode is the first candidate and a menu
        // option replaces it only at a strictly lower cost, so ties keep
        // plain decode and speculation that does not pay is stripped.
        for (call, choices) in space.spec_options() {
            if start.elapsed() >= cfg.time_limit {
                break;
            }
            let mut chosen = best_plan
                .with_spec(*call, None)
                .expect("clearing speculation always validates");
            let (mut chosen_cost, _) = pricer.cost_checked(&chosen);
            for choice in choices {
                let candidate = best_plan
                    .with_spec(*call, Some(choice.clone()))
                    .expect("menu choices validate");
                let (cost, _) = pricer.cost_checked(&candidate);
                if cost < chosen_cost {
                    chosen = candidate;
                    chosen_cost = cost;
                }
            }
            polish_priced += 1 + choices.len() as u64;
            // The incumbent's own choice is a candidate unless it came from
            // outside the menu (a resumed plan's), which is kept over a
            // costlier one.
            if chosen_cost <= best_cost {
                let better = chosen_cost < best_cost;
                if chosen != best_plan {
                    last_move = None;
                }
                best_plan = chosen;
                best_cost = chosen_cost;
                improved |= better;
                if better && cfg.record_trace {
                    trace.push((start.elapsed().as_secs_f64(), pricer.time_cost(&best_plan)));
                }
            }
        }
    }

    telemetry.counter_add("search/steps", &labels, steps as f64);
    telemetry.counter_add("search/accepted", &labels, accepted as f64);
    telemetry.counter_add("search/bound_rejected", &labels, bound_rejected as f64);
    telemetry.counter_add("search/polish_priced", &labels, polish_priced as f64);
    telemetry.counter_add("search/polish_pruned", &labels, polish_pruned as f64);
    telemetry.gauge_set(
        "search/acceptance_rate",
        &labels,
        if steps == 0 {
            0.0
        } else {
            accepted as f64 / steps as f64
        },
    );
    let best_time_cost = pricer.time_cost(&best_plan);
    telemetry.gauge_set("search/best_time_cost_final", &labels, best_time_cost);
    let feasible = pricer.mem_ok(&best_plan);

    // Memo accounting: report only this search's deltas (a shared cache
    // arrives with history).
    let memo_stats = pricer.memo_stats().since(memo_before);
    telemetry.counter_add("search/memo_hits", &labels, memo_stats.hits as f64);
    telemetry.counter_add("search/memo_misses", &labels, memo_stats.misses as f64);
    telemetry.ratio_gauge(
        "search/memo_hit_rate",
        &labels,
        memo_stats.hits as f64,
        (memo_stats.hits + memo_stats.misses) as f64,
    );

    SearchResult {
        best_time_cost,
        feasible,
        best_plan,
        steps,
        accepted,
        trace,
        telemetry,
        chain: chain_state,
        memo: memo_stats,
    }
}

/// One chain step's move.
enum Proposal {
    /// Re-draw one call's assignment.
    Assign(CallId, CallAssignment),
    /// A speculation move, already applied to the incumbent.
    Spec(ExecutionPlan),
}

/// Draws the next move from `current`. In a space without speculation
/// options every move re-draws one call's assignment uniformly from its
/// options. With them, half the moves are speculation moves on a random
/// speculating call: set or re-draw its choice from the menu, or clear it.
fn propose(rng: &mut DeterministicRng, space: &SearchSpace, current: &ExecutionPlan) -> Proposal {
    let spec = space.spec_options();
    if !spec.is_empty() {
        let kind = rng.index(4);
        if kind >= 2 {
            let (call, choices) = &spec[rng.index(spec.len())];
            let choice = (kind == 2).then(|| choices[rng.index(choices.len())].clone());
            return Proposal::Spec(
                current
                    .with_spec(*call, choice)
                    .expect("menu choices validate"),
            );
        }
    }
    let call = CallId(rng.index(space.n_calls()));
    let opts = space.options(call.0);
    Proposal::Assign(call, opts[rng.index(opts.len())])
}

/// Relative margin on the gate's acceptance weight: `exp` is only
/// faithfully rounded, so `exp` of a larger argument may come out up to an
/// ulp or two *below* `exp` of a smaller one.
const GATE_MARGIN: f64 = 1e-12;

/// The Metropolis weight `exp(-β · (cost − current) / current)` of moving to
/// a plan of `cost`; the acceptance probability is its `min(1, ·)`.
fn accept_weight(beta: f64, cost: f64, current: f64) -> f64 {
    let delta = (cost - current) / current.max(f64::MIN_POSITIVE);
    (-beta * delta).exp()
}

/// Whether a proposal whose lower bound has Metropolis weight
/// `bound_weight` is rejected at `u` without being priced — only when
/// pricing would reject it too. A cost at or above its bound gives, through
/// monotone `fl(−)`, `fl(/)` by a positive number and `fl(×)` by `−β`, an
/// `exp` argument at or below the bound's, so its faithfully rounded weight
/// exceeds `bound_weight` by at most a relative ~4.4e-16 (normal range) or
/// two subnormal ulps (below it). The relative [`GATE_MARGIN`] covers the
/// first and the absolute `f64::MIN_POSITIVE` the second, so `u == 0` is
/// never gated.
fn bound_rejects(u: f64, bound_weight: f64) -> bool {
    bound_weight < 1.0 && u >= bound_weight * (1.0 + GATE_MARGIN) + f64::MIN_POSITIVE
}

/// The seed chain `k` of a parallel search runs with: chain 0 keeps the
/// caller's seed (so the multi-chain result is always at least as good as
/// the single-chain one), later chains draw from the `"chain"` RNG
/// substream of that seed. Pure — the whole determinism contract of
/// [`parallel_search_on`] reduces to this function plus ordered merging.
pub fn chain_seed(seed: u64, chain: usize) -> u64 {
    if chain == 0 {
        seed
    } else {
        DeterministicRng::from_seed(seed)
            .derive("chain")
            .derive_index(chain as u64)
            .next_u64()
    }
}

/// Deterministically merges per-chain results (in chain order): telemetry
/// is unioned (chains are distinguished by their `chain=<seed>` label, so
/// the merge is collision-free), memo counters sum, and the winner is the
/// first chain with the best `(feasibility, TimeCost)` key.
///
/// The merge depends only on the *list* — never on thread scheduling — so
/// a parallel search returns a byte-identical plan for any thread count.
///
/// # Panics
///
/// Panics if `results` is empty.
pub fn merge_results(results: Vec<SearchResult>) -> SearchResult {
    let mut merged = MetricsRegistry::new();
    let mut memo = MemoStats::default();
    for r in &results {
        merged.merge(&r.telemetry);
        memo = memo.merged(r.memo);
    }
    let mut best = results
        .into_iter()
        .min_by(|a, b| {
            (!a.feasible, a.best_time_cost)
                .partial_cmp(&(!b.feasible, b.best_time_cost))
                .expect("costs are finite")
        })
        .expect("at least one chain result");
    best.telemetry = merged;
    best.memo = memo;
    best
}

/// Runs `n_chains` independent chains across worker threads (derived
/// seeds) and returns the best result; ties favour feasibility then lower
/// time. Shorthand for [`parallel_search_on`] with one thread per chain and
/// a fresh memo.
///
/// # Panics
///
/// Panics if `n_chains == 0`.
pub fn parallel_search(
    est: &Estimator,
    space: &SearchSpace,
    cfg: &McmcConfig,
    n_chains: usize,
) -> SearchResult {
    parallel_search_on(est, space, cfg, n_chains, n_chains, &mut CostMemo::new())
}

/// Runs `n_chains` logical chains over a pool of `threads` workers.
///
/// The logical chain set is fixed up front ([`chain_seed`]) and each chain
/// is fully determined by its own config, so workers can pick chains off a
/// shared queue in any order; results are slotted by chain index and merged
/// with [`merge_results`]. Consequence: for step-bounded configs the chosen
/// plan is **bit-identical for any `threads`** — 1, 2, or the machine's
/// core count — which is what lets operators crank parallelism without
/// losing reproducibility (see `docs/SEARCH.md`).
///
/// Chain 0 prices through the caller's `memo`, as [`search_with_memo`]
/// does, and leaves what it learned there; the other chains price through
/// private memos. Memoization is exact, so the memo never changes the plan.
///
/// # Panics
///
/// Panics if `n_chains == 0` or `threads == 0`.
pub fn parallel_search_on(
    est: &Estimator,
    space: &SearchSpace,
    cfg: &McmcConfig,
    n_chains: usize,
    threads: usize,
    memo: &mut CostMemo,
) -> SearchResult {
    assert!(n_chains > 0, "need at least one chain");
    assert!(threads > 0, "need at least one worker thread");
    if n_chains == 1 {
        return search_with_memo(est, space, cfg, memo);
    }
    let workers = threads.min(n_chains);
    let next = AtomicUsize::new(0);
    let memo = Mutex::new(memo);
    let slots: Vec<Mutex<Option<SearchResult>>> = (0..n_chains).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let chain = next.fetch_add(1, Ordering::Relaxed);
                if chain >= n_chains {
                    break;
                }
                let mut chain_cfg = cfg.clone();
                chain_cfg.seed = chain_seed(cfg.seed, chain);
                let result = if chain == 0 {
                    let mut memo = memo.lock().expect("memo not poisoned");
                    search_with_memo(est, space, &chain_cfg, &mut memo)
                } else {
                    search(est, space, &chain_cfg)
                };
                *slots[chain].lock().expect("result slot not poisoned") = Some(result);
            });
        }
    });
    let results: Vec<SearchResult> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot not poisoned")
                .expect("every chain ran to completion")
        })
        .collect();
    merge_results(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_plan;
    use crate::heuristic::heuristic_plan;
    use real_cluster::ClusterSpec;
    use real_dataflow::algo::{ppo, RlhfConfig};
    use real_estimator::Shape;
    use real_model::ModelSpec;
    use real_profiler::{ProfileConfig, Profiler};
    use std::sync::OnceLock;

    fn setup(nodes: u32, batch: u64) -> (Estimator, SearchSpace) {
        let cluster = ClusterSpec::h100(nodes);
        let actor = ModelSpec::llama3_7b();
        let critic = actor.critic();
        let graph = ppo(&actor, &critic, &RlhfConfig::instruct_gpt(batch));
        let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 21);
        let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
        let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
        let space = SearchSpace::build(&cluster, &graph, PruneLevel::Aggressive);
        (est, space)
    }

    fn quick_cfg(seed: u64) -> McmcConfig {
        McmcConfig {
            beta: 1.0,
            max_steps: 3_000,
            time_limit: Duration::from_secs(20),
            seed,
            record_trace: true,
        }
    }

    #[test]
    fn search_improves_on_or_matches_greedy() {
        let (est, space) = setup(1, 128);
        let greedy = greedy_plan(&est, &space);
        let greedy_cost = est.cost(&greedy);
        let result = search(&est, &space, &quick_cfg(3));
        // The chain never returns anything worse than its start by the
        // penalized cost, and for this workload it must escape the greedy
        // plan's OOM into a feasible region.
        assert!(est.cost(&result.best_plan) <= greedy_cost + 1e-9);
        assert!(result.feasible);
        assert!(result.steps > 0);
    }

    #[test]
    fn search_beats_the_heuristic_plan() {
        // The headline claim at small scale: the searched plan is faster
        // than the symmetric heuristic.
        let (est, space) = setup(2, 512);
        let heuristic = heuristic_plan(&est).unwrap();
        let heuristic_time = est.time_cost(&heuristic);
        let result = search(&est, &space, &quick_cfg(5));
        assert!(
            result.best_time_cost < heuristic_time,
            "searched {} vs heuristic {heuristic_time}",
            result.best_time_cost
        );
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let (est, space) = setup(1, 128);
        let mut cfg = quick_cfg(7);
        cfg.time_limit = Duration::from_secs(3600); // steps bound only
        cfg.max_steps = 500;
        let a = search(&est, &space, &cfg);
        let b = search(&est, &space, &cfg);
        assert_eq!(a.best_plan, b.best_plan);
        assert_eq!(a.accepted, b.accepted);
    }

    #[test]
    fn acceptance_rate_is_sane() {
        let (est, space) = setup(1, 128);
        let result = search(&est, &space, &quick_cfg(11));
        let rate = result.acceptance_rate();
        assert!(rate > 0.0 && rate < 1.0, "acceptance {rate}");
    }

    #[test]
    fn trace_grows_in_time_and_ends_at_best() {
        let (est, space) = setup(2, 512);
        let result = search(&est, &space, &quick_cfg(13));
        for w in result.trace.windows(2) {
            assert!(w[1].0 >= w[0].0, "elapsed must grow");
        }
        // The trace records the best plan's TimeCost at each improvement of
        // the *penalized* cost; the last entry is the final best.
        let last = result.trace.last().expect("trace has the initial entry");
        assert!((last.1 - result.best_time_cost).abs() < 1e-9);
    }

    #[test]
    fn telemetry_records_chain_trajectory() {
        let (est, space) = setup(1, 128);
        let cfg = quick_cfg(19);
        let result = search(&est, &space, &cfg);
        let chain = cfg.seed.to_string();
        let lbl: [(&str, &str); 1] = [("chain", chain.as_str())];
        let t = &result.telemetry;
        assert_eq!(
            t.get("search/steps", &lbl).unwrap().scalar(),
            result.steps as f64
        );
        assert_eq!(
            t.get("search/accepted", &lbl).unwrap().scalar(),
            result.accepted as f64
        );
        let rate = t.get("search/acceptance_rate", &lbl).unwrap().scalar();
        assert!((rate - result.acceptance_rate()).abs() < 1e-12);
        // Every step contributes one energy sample (stored or counted).
        match t.get("search/energy", &lbl).unwrap() {
            real_obs::MetricValue::Series(s) => {
                assert_eq!(s.points().len() as u64 + s.dropped(), result.steps);
            }
            other => panic!("expected series, got {}", other.kind()),
        }
        // The greedy start for this workload is OOM, so the chain must have
        // proposed penalized plans along the way.
        assert!(t.get("search/oom_penalty_hits", &lbl).unwrap().scalar() > 0.0);
    }

    #[test]
    fn parallel_search_merges_chain_telemetry() {
        let (est, space) = setup(1, 128);
        let mut cfg = quick_cfg(23);
        cfg.max_steps = 200;
        let multi = parallel_search(&est, &space, &cfg, 3);
        let chains = multi
            .telemetry
            .iter()
            .filter(|(k, _)| k.name() == "search/steps")
            .count();
        assert_eq!(chains, 3, "one steps counter per chain");
    }

    #[test]
    fn parallel_chains_no_worse_than_single() {
        let (est, space) = setup(1, 128);
        let mut cfg = quick_cfg(17);
        cfg.max_steps = 1_000;
        let single = search(&est, &space, &cfg);
        let multi = parallel_search(&est, &space, &cfg, 4);
        assert!(multi.best_time_cost <= single.best_time_cost + 1e-9);
    }

    /// Step-bounded config so results depend only on seeds, not wall clock.
    fn steps_only_cfg(seed: u64, max_steps: u64) -> McmcConfig {
        McmcConfig {
            beta: 1.0,
            max_steps,
            time_limit: Duration::from_secs(3600),
            seed,
            record_trace: false,
        }
    }

    #[test]
    fn pricer_chain_matches_reference_chain() {
        let (est, space) = setup(2, 512);
        let cfg = steps_only_cfg(29, 800);
        let a = search(&est, &space, &cfg);
        let b = search_reference(&est, &space, &cfg);
        assert_eq!(a.best_plan, b.best_plan);
        assert_eq!(a.best_time_cost.to_bits(), b.best_time_cost.to_bits());
        assert_eq!((a.steps, a.accepted), (b.steps, b.accepted));
        assert_eq!(a.chain, b.chain, "chain state must match bit-for-bit");
        assert!(a.memo.hits > 0, "the fast path must actually hit");
        assert_eq!(b.memo, MemoStats::default());
        // The pricer chain's polish skips candidates by the critical-path
        // bound; the reference chain's stays exhaustive.
        let counter = |r: &SearchResult, name: &str| {
            let chain = cfg.seed.to_string();
            r.telemetry
                .get(name, &[("chain", chain.as_str())])
                .unwrap()
                .scalar()
        };
        assert!(counter(&a, "search/polish_pruned") > 0.0);
        assert_eq!(counter(&b, "search/polish_pruned"), 0.0);
        // Likewise the chain: the pricer gates proposals by the same bound,
        // the reference prices every one — and both chains end bit-equal.
        assert!(counter(&a, "search/bound_rejected") > 0.0);
        assert_eq!(counter(&b, "search/bound_rejected"), 0.0);
        assert!(counter(&b, "search/polish_priced") > counter(&a, "search/polish_priced"));
        assert_eq!(
            counter(&a, "search/polish_priced") + counter(&a, "search/polish_pruned"),
            counter(&b, "search/polish_priced"),
            "both polishes visit the same candidates"
        );
    }

    /// One estimator and space per node count, shared across proptest cases.
    fn shared_setup(nodes: u32) -> &'static (Estimator, SearchSpace) {
        static ONE: OnceLock<(Estimator, SearchSpace)> = OnceLock::new();
        static TWO: OnceLock<(Estimator, SearchSpace)> = OnceLock::new();
        let cell = if nodes == 1 { &ONE } else { &TWO };
        cell.get_or_init(|| setup(nodes, 128))
    }

    proptest::proptest! {
        /// The gate's exactness contract: whenever the lower bound rejects a
        /// proposal unpriced, pricing it would have rejected it too — at a
        /// random `u`, at the least `u` the gate rejects, and for the
        /// tightest admissible bound — over random 1–2-node plans, calls,
        /// options and the whole annealing range of β. The memory-aware
        /// gate too: when the penalized bound `fl(bound · α)` loses the
        /// draw and the proposal does not fit, pricing rejects it.
        #[test]
        fn bound_gate_only_rejects_what_pricing_rejects(
            nodes in 1u32..3,
            picks in proptest::collection::vec(0usize..1_000_000, 6),
            call in 0usize..6,
            alt in 0usize..1_000_000,
            u in 0.0..1.0f64,
            progress in 0.0..1.0f64,
        ) {
            let (est, space) = shared_setup(nodes);
            let assignments: Vec<CallAssignment> = (0..space.n_calls())
                .map(|c| space.options(c)[picks[c % picks.len()] % space.options(c).len()])
                .collect();
            let plan = ExecutionPlan::new(est.graph(), est.cluster(), assignments).unwrap();
            let call = CallId(call % space.n_calls());
            let a = space.options(call.0)[alt % space.options(call.0).len()];
            let beta = McmcConfig::default().beta * (1.0 + 3.0 * progress);

            let mut pricer = PlanPricer::new(est);
            let current = pricer.cost(&plan);
            let bound = pricer.cost_lower_bound_perturbed(&plan, call, a);
            let (cost, oom) = pricer.cost_checked_perturbed(&plan, call, a);
            proptest::prop_assert_eq!(pricer.mem_ok_perturbed(&plan, call, a), !oom);
            let bound_weight = accept_weight(beta, bound, current);
            let accept_p = accept_weight(beta, cost, current).min(1.0);
            if bound_rejects(u, bound_weight) {
                proptest::prop_assert!(u >= accept_p, "u {u} gated below accept_p {accept_p}");
            }
            let oom_weight = accept_weight(beta, bound * OOM_PENALTY, current);
            if oom && bound_rejects(u, oom_weight) {
                proptest::prop_assert!(u >= accept_p, "u {u} gated below accept_p {accept_p}");
            }
            let edge = oom_weight * (1.0 + GATE_MARGIN) + f64::MIN_POSITIVE;
            if oom && edge < 1.0 {
                proptest::prop_assert!(edge >= accept_p, "edge {edge} below accept_p {accept_p}");
            }
            let edge = bound_weight * (1.0 + GATE_MARGIN) + f64::MIN_POSITIVE;
            if edge < 1.0 {
                proptest::prop_assert!(bound_rejects(edge, bound_weight));
                proptest::prop_assert!(edge >= accept_p, "edge {edge} below accept_p {accept_p}");
            }
            // The tightest admissible bound is the cost itself: even then no
            // `u` below `accept_p` may be gated.
            if accept_p > 0.0 {
                let below = f64::from_bits(accept_p.to_bits() - 1);
                proptest::prop_assert!(!bound_rejects(below, accept_weight(beta, cost, current)));
            }
        }
    }

    #[test]
    fn polish_prunes_while_the_incumbent_is_infeasible() {
        // PPO 70B + 7B critic on 16 nodes: one step leaves the chain on its
        // out-of-memory greedy start, and no one-call move from there fits,
        // so the polish keeps a ×α incumbent that no time bound reaches.
        // Only the memory-aware bound prunes there.
        let cluster = ClusterSpec::h100(16);
        let actor = ModelSpec::llama3_70b();
        let critic = ModelSpec::llama3_7b().critic();
        let graph = ppo(&actor, &critic, &RlhfConfig::instruct_gpt(4096));
        let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 1);
        let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
        let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();
        let space = SearchSpace::build(&cluster, &graph, PruneLevel::Aggressive);
        let cfg = steps_only_cfg(1, 1);
        let a = search(&est, &space, &cfg);
        let b = search_reference(&est, &space, &cfg);
        assert!(
            !est.mem_ok(&a.chain.best),
            "the polish must start infeasible"
        );
        assert!(!a.feasible, "and end infeasible");
        assert_eq!(a.best_plan, b.best_plan);
        assert_eq!(a.best_time_cost.to_bits(), b.best_time_cost.to_bits());
        let counter = |r: &SearchResult, name: &str| {
            let chain = cfg.seed.to_string();
            r.telemetry
                .get(name, &[("chain", chain.as_str())])
                .unwrap()
                .scalar()
        };
        let (priced, pruned) = (
            counter(&a, "search/polish_priced"),
            counter(&a, "search/polish_pruned"),
        );
        assert!(pruned > priced, "priced {priced}, pruned {pruned}");
        assert_eq!(priced + pruned, counter(&b, "search/polish_priced"));
    }

    #[test]
    fn search_within_confines_the_plan_to_the_mesh() {
        let (est, _) = setup(2, 128);
        let cluster = est.cluster().clone();
        let node1 = DeviceMesh::whole_nodes(&cluster, 1, 1).unwrap();
        let inside = |plan: &ExecutionPlan| {
            plan.assignments()
                .iter()
                .all(|a| node1.contains_mesh(&a.mesh))
        };
        let cfg = steps_only_cfg(41, 200);
        let mut memo = CostMemo::new();
        let prune = PruneLevel::Aggressive;
        let cold = search_within(&est, &node1, prune, &cfg, None, &mut memo)
            .expect("PPO 7B fits one node");
        assert!(inside(&cold.best_plan) && est.mem_ok(&cold.best_plan));
        // The step time is the search's own price of the chosen plan,
        // bit-identical to pricing it again from scratch.
        assert_eq!(
            cold.best_time_cost.to_bits(),
            est.time_cost(&cold.best_plan).to_bits()
        );
        // A full-cluster start plan is projected into the mesh.
        let start = heuristic_plan(&est).unwrap();
        assert!(!inside(&start));
        let warm = search_within(&est, &node1, prune, &cfg, Some(&start), &mut memo).unwrap();
        assert!(inside(&warm.best_plan));
        // A mesh that cannot hold the workload yields no candidate.
        let gpu = DeviceMesh::enumerate(&cluster)
            .into_iter()
            .find(|m| m.n_gpus() == 1)
            .unwrap();
        assert!(search_within(&est, &gpu, prune, &cfg, None, &mut memo).is_none());
    }

    #[test]
    fn parallel_best_plan_is_byte_identical_for_1_2_and_8_threads() {
        let (est, space) = setup(1, 128);
        let cfg = steps_only_cfg(31, 400);
        let results: Vec<SearchResult> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                parallel_search_on(&est, &space, &cfg, 8, threads, &mut CostMemo::new())
            })
            .collect();
        let reference = serde_json::to_string(&results[0].best_plan).unwrap();
        for r in &results[1..] {
            assert_eq!(
                serde_json::to_string(&r.best_plan).unwrap(),
                reference,
                "plan bytes must not depend on thread count"
            );
            assert_eq!(
                r.best_time_cost.to_bits(),
                results[0].best_time_cost.to_bits()
            );
            assert_eq!(
                (r.steps, r.accepted),
                (results[0].steps, results[0].accepted)
            );
            assert_eq!(r.memo, results[0].memo);
        }
    }

    #[test]
    fn shared_memo_carries_across_searches_and_reports_deltas() {
        let (est, space) = setup(1, 128);
        let cfg = steps_only_cfg(37, 300);
        let mut memo = real_estimator::CostMemo::new();
        let first = search_with_memo(&est, &space, &cfg, &mut memo);
        let second = search_with_memo(&est, &space, &cfg, &mut memo);
        // Same chain over a warm cache: almost everything hits.
        assert!(second.memo.misses < first.memo.misses);
        assert!(second.memo.hit_rate() > first.memo.hit_rate());
        // And the shared cache never changes the answer.
        assert_eq!(first.best_plan, second.best_plan);
        let cold = search(&est, &space, &cfg);
        assert_eq!(cold.best_plan, second.best_plan);
        assert_eq!(
            cold.best_time_cost.to_bits(),
            second.best_time_cost.to_bits()
        );
    }

    #[test]
    fn the_memo_holds_at_most_one_duration_per_shape() {
        // 16 nodes, a fixed step budget: the memo's durations are keyed by
        // what a duration reads, so there are at most as many as the
        // space has distinct (call, shape) keys, far fewer than options.
        let (est, space) = setup(16, 512);
        let mut memo = CostMemo::new();
        search_with_memo(&est, &space, &steps_only_cfg(11, 2_000), &mut memo);
        let shapes: std::collections::HashSet<(usize, Shape)> = (0..space.n_calls())
            .flat_map(|c| space.options(c).iter().map(move |a| (c, Shape::of(a))))
            .collect();
        let options: usize = (0..space.n_calls()).map(|c| space.options(c).len()).sum();
        assert!(
            memo.duration_entries() <= shapes.len(),
            "{} duration entries for {} shapes",
            memo.duration_entries(),
            shapes.len()
        );
        assert!(
            4 * shapes.len() < options,
            "{} shapes, {options} options",
            shapes.len()
        );
    }

    #[test]
    fn chain_seed_is_stable_and_collision_free_for_small_fleets() {
        assert_eq!(chain_seed(42, 0), 42, "chain 0 keeps the caller's seed");
        let seeds: Vec<u64> = (0..64).map(|c| chain_seed(42, c)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "derived seeds must not collide");
        // Deterministic: same inputs, same seeds.
        assert_eq!(
            seeds,
            (0..64).map(|c| chain_seed(42, c)).collect::<Vec<_>>()
        );
    }
}
