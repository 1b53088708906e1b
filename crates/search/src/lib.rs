//! The execution plan generator (§5 of the paper).
//!
//! - [`space`] — enumerates each call's `(device mesh, strategy,
//!   micro-batches)` options with the §8.2 pruning heuristics, at three
//!   pruning levels (the Fig. 14 ablation),
//! - [`greedy`] — the §5.2 greedy initial plan `p0` minimizing the sum of
//!   isolated call costs,
//! - [`heuristic`] — the REAL-Heuristic baseline: a pre-training-inspired
//!   symmetric 3D plan (intra-node TP, inter-node PP, DP maximized within
//!   memory),
//! - [`mcmc`] — Metropolis–Hastings sampling over the energy distribution
//!   `P(p) ∝ exp(-β · cost(G_p))`, plus a multi-chain parallel driver (the
//!   paper's noted multi-core extension); the one search driver, which also
//!   proposes and polishes speculation choices when the space has them,
//! - [`brute`] — branch-and-bound exhaustive search over the same pruned
//!   space, used as the optimality reference of Fig. 15,
//! - [`checkpoint`] — serde checkpoint/restore of the MCMC chain state
//!   (incumbent, best, RNG position, step count) plus projection of an
//!   incumbent plan onto a shrunken space, powering warm-started mid-run
//!   re-planning (`search_warm` / `resume`),
//! - [`specsearch`] — speculative decoding as a searchable plan dimension: a
//!   speculation menu (drafts × speculation lengths × draft placements) and
//!   the two-phase speculative search (the plain search, then one
//!   [`mcmc`] chain over the speculation space from the plain winner).

pub mod brute;
pub mod checkpoint;
pub mod explain;
pub mod greedy;
pub mod heuristic;
pub mod mcmc;
pub mod space;
pub mod specsearch;

pub use brute::{brute_force, BruteConfig};
pub use checkpoint::{project_onto, ChainState, SearchCheckpoint};
pub use explain::{compare, CallDiff, PlanComparison, SpecDiff};
pub use greedy::greedy_plan;
pub use heuristic::{heuristic_plan, NoSymmetricPlan};
pub use mcmc::{
    chain_seed, merge_results, parallel_search, parallel_search_on, resume, search, search_warm,
    search_with_memo, search_within, McmcConfig, SearchResult,
};
pub use space::{ImpossibleCall, PruneLevel, SearchSpace};
pub use specsearch::{search_speculative, SpecMenu, SpecSearchResult};
