//! The pricing hot path allocates nothing once warm: a counting global
//! allocator watches every `PlanPricer` query the plan search makes, run a
//! second time over the same plans and perturbations. A regression that
//! brings a per-query `Vec`, `String` or clone back fails here
//! deterministically, where a timing benchmark would only drift.

use real_cluster::{ClusterSpec, DeviceMesh};
use real_dataflow::{algo, CallAssignment, CallId, ExecutionPlan, SpecChoice};
use real_estimator::augment::{self, NodeKind};
use real_estimator::{Estimator, PlanPricer};
use real_model::specdec::AcceptanceCurve;
use real_model::{ModelSpec, ParallelStrategy, SpecDecodeConfig};
use real_profiler::{ProfileConfig, Profiler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's allocations and reallocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the allocator's; the count only touches a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn assignment(mesh: DeviceMesh, dp: u32, tp: u32, pp: u32, mbs: u32) -> CallAssignment {
    CallAssignment::new(mesh, ParallelStrategy::new(dp, tp, pp, mbs).unwrap()).unwrap()
}

/// Every query kind the search prices a plan with, over each call's
/// one-call perturbations to `alts`.
fn price_all(pricer: &mut PlanPricer, plans: &[ExecutionPlan], alts: &[CallAssignment]) {
    for plan in plans {
        let target = pricer.time_cost(plan);
        let _ = pricer.mem_ok(plan);
        let _ = pricer.cost_checked(plan);
        for call in (0..plan.assignments().len()).map(CallId) {
            for &a in alts {
                let _ = pricer.cost_checked_perturbed(plan, call, a);
                let _ = pricer.mem_ok_perturbed(plan, call, a);
                let _ = pricer.time_cost_perturbed(plan, call, a);
                let _ = pricer.cost_lower_bound_perturbed(plan, call, a);
            }
            let _ = pricer.lower_bound_thresholds(plan, call, target);
        }
    }
}

#[test]
fn warm_pricing_queries_allocate_nothing() {
    let cluster = ClusterSpec::h100(2);
    let actor = ModelSpec::llama3_7b();
    let critic = actor.critic();
    let graph = algo::ppo(&actor, &critic, &algo::RlhfConfig::instruct_gpt(256));
    let mut profiler = Profiler::new(cluster.clone(), ProfileConfig::quick(), 21);
    let profiles = vec![profiler.profile(&actor), profiler.profile(&critic)];
    let est = Estimator::new(cluster.clone(), graph.clone(), profiles).unwrap();

    // An asymmetric plan: generation on both nodes, the reference on node
    // 0, the critic family on node 1, and actor training re-sharded.
    let full = DeviceMesh::full(&cluster);
    let node0 = DeviceMesh::whole_nodes(&cluster, 0, 1).unwrap();
    let node1 = DeviceMesh::whole_nodes(&cluster, 1, 1).unwrap();
    let by_name = |name: &str| match name {
        "actor_gen" => assignment(full, 2, 8, 1, 1),
        "ref_inf" => assignment(node0, 1, 8, 1, 4),
        "actor_train" => assignment(full, 1, 8, 2, 8),
        "critic_train" => assignment(node1, 1, 4, 2, 8),
        _ => assignment(node1, 1, 8, 1, 4),
    };
    let assignments = (0..graph.n_calls())
        .map(|c| by_name(&graph.call(CallId(c)).call_name))
        .collect();
    let plain = ExecutionPlan::new(&graph, &cluster, assignments).unwrap();
    let kinds: Vec<NodeKind> = {
        let g = augment::build(&plain, &est);
        (0..g.len()).map(|i| g.kind(i)).collect()
    };
    assert!(kinds.contains(&NodeKind::Realloc), "no reallocation node");
    assert!(kinds.contains(&NodeKind::Transfer), "no transfer node");

    let draft = SpecChoice {
        config: SpecDecodeConfig {
            draft_model: ModelSpec::llama3_1b(),
            speculation_len: 4,
            acceptance_curve: AcceptanceCurve::Constant(0.8),
        },
        assignment: assignment(DeviceMesh::sub_node(&cluster, 1, 0, 2).unwrap(), 1, 2, 1, 1),
    };
    let speculative = plain
        .with_spec(graph.find("actor_gen").unwrap(), Some(draft))
        .unwrap();
    let alts = [
        assignment(node0, 1, 8, 1, 8),
        assignment(full, 4, 4, 1, 2),
        assignment(DeviceMesh::sub_node(&cluster, 0, 0, 4).unwrap(), 1, 4, 1, 4),
    ];
    let plans = [plain, speculative];

    let mut pricer = PlanPricer::new(&est);
    let before = allocations();
    price_all(&mut pricer, &plans, &alts);
    assert!(allocations() > before, "the warm-up must fill the memo");

    let before = allocations();
    price_all(&mut pricer, &plans, &alts);
    assert_eq!(allocations() - before, 0, "warm pricing queries allocated");
}
