//! Algorithm 1 (Appendix C): simulate the augmented graph's schedule with
//! the constraint that nodes on overlapping device meshes cannot execute
//! simultaneously, and return the makespan.
//!
//! The simulation keeps the paper's `D.last`: the last end time per
//! distinct device mesh of the [`AugGraph`]. A popped node starts at its
//! ready time or at the `D.last` of any mesh overlapping one of its own
//! meshes (its conflict set), whichever is later, and then becomes its own
//! meshes' `D.last`. That is the same `max` over the same end times as
//! scanning every completed node for an overlap, so makespans are
//! bit-identical to the scan, at a cost per node of its conflict set and
//! its children (CSR lists built once per run) instead of the whole graph.
//! Every buffer lives in a reusable [`Simulator`], so a warm run allocates
//! nothing.
//!
//! [`Simulator::makespan_instrumented`] additionally counts the algorithm's
//! queue events into a [`real_obs::MetricsRegistry`] — per-kind busy
//! seconds, ready-queue pops, and device-serialization stalls — so
//! estimator-vs-runtime divergence (Fig. 12) can be diagnosed per category
//! instead of only at the end-to-end number.

use crate::augment::AugGraph;
use real_obs::MetricsRegistry;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry ordered by minimum ready time (min-heap via reversed Ord).
#[derive(Debug, Clone, PartialEq)]
struct Ready {
    time: f64,
    node: usize,
}

impl Eq for Ready {}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; tie-break on node index for determinism.
        other
            .time
            .partial_cmp(&self.time)
            .expect("ready times are finite")
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Algorithm 1's working state, kept between runs so that simulating a
/// graph no larger than an earlier one allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    /// Per node: the latest end time among its released parents.
    ready: Vec<f64>,
    /// Per node: parents not yet completed.
    pending: Vec<u32>,
    /// CSR children lists: node `i`'s children are
    /// `children[child_start[i]..child_start[i + 1]]`, ascending.
    child_start: Vec<u32>,
    children: Vec<u32>,
    /// CSR conflict sets: the ids of the meshes overlapping mesh `m`
    /// (itself included) are `conflicts[conflict_start[m]..conflict_start[m + 1]]`.
    conflict_start: Vec<u32>,
    conflicts: Vec<u32>,
    /// `D.last`: per mesh id, the latest end time of a completed node on
    /// that mesh (`-∞` before the first).
    last_end: Vec<f64>,
    heap: BinaryHeap<Ready>,
}

impl Simulator {
    /// A simulator with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs Algorithm 1 over `graph` and returns the maximum `EndTime`.
    pub fn makespan(&mut self, graph: &AugGraph) -> f64 {
        self.run(graph, None)
    }

    /// [`Simulator::makespan`] with Algorithm-1 queue telemetry recorded
    /// into `metrics`:
    ///
    /// * `estimator/queue_pops{kind}` — ready-queue pops per node kind;
    /// * `estimator/node_seconds{kind}` — summed durations per node kind
    ///   (the estimator-side counterpart of the runtime's category totals);
    /// * `estimator/device_serializations{kind}` and
    ///   `estimator/serialization_delay_seconds{kind}` — how often (and for
    ///   how long) a ready node stalled behind a completed node on an
    ///   overlapping mesh;
    /// * `estimator/releases` — dependency releases, and
    ///   `estimator/makespan_seconds` — the returned makespan.
    pub fn makespan_instrumented(
        &mut self,
        graph: &AugGraph,
        metrics: &mut MetricsRegistry,
    ) -> f64 {
        self.run(graph, Some(metrics))
    }

    /// Rebuilds the per-run indexes: pending counts, children lists,
    /// conflict sets and `D.last`.
    fn index(&mut self, graph: &AugGraph) {
        let n = graph.len();
        self.ready.clear();
        self.ready.resize(n, 0.0);
        self.pending.clear();
        // First `child_start[i]` counts the children of nodes `0..=i` (the
        // end of `i`'s list); filling in descending node order then walks
        // each entry back to its list's start, leaving the lists ascending.
        self.child_start.clear();
        self.child_start.resize(n + 1, 0);
        for i in 0..n {
            let parents = graph.parents(i);
            self.pending.push(parents.len() as u32);
            for &p in parents {
                self.child_start[p as usize] += 1;
            }
        }
        let mut total = 0u32;
        for slot in &mut self.child_start[..n] {
            total += *slot;
            *slot = total;
        }
        self.child_start[n] = total;
        self.children.clear();
        self.children.resize(total as usize, 0);
        for i in (0..n).rev() {
            for &p in graph.parents(i) {
                let slot = &mut self.child_start[p as usize];
                *slot -= 1;
                self.children[*slot as usize] = i as u32;
            }
        }

        let meshes = graph.meshes();
        self.conflict_start.clear();
        self.conflicts.clear();
        for (a, ma) in meshes.iter().enumerate() {
            self.conflict_start.push(self.conflicts.len() as u32);
            for (b, mb) in meshes.iter().enumerate() {
                if a == b || ma.overlaps(mb) {
                    self.conflicts.push(b as u32);
                }
            }
        }
        self.conflict_start.push(self.conflicts.len() as u32);
        self.last_end.clear();
        self.last_end.resize(meshes.len(), f64::NEG_INFINITY);
        self.heap.clear();
    }

    fn run(&mut self, graph: &AugGraph, mut metrics: Option<&mut MetricsRegistry>) -> f64 {
        self.index(graph);
        for (i, &p) in self.pending.iter().enumerate() {
            if p == 0 {
                self.heap.push(Ready { time: 0.0, node: i });
            }
        }

        let mut max_end = 0.0f64;
        while let Some(Ready { time, node }) = self.heap.pop() {
            // Device constraint: start no earlier than the end of any
            // completed node occupying an overlapping mesh.
            let mut start = time;
            for &m in graph.node_meshes(node) {
                let m = m as usize;
                let set = self.conflict_start[m] as usize..self.conflict_start[m + 1] as usize;
                for &c in &self.conflicts[set] {
                    start = start.max(self.last_end[c as usize]);
                }
            }
            let duration = graph.duration(node);
            let end = start + duration;
            max_end = max_end.max(end);
            for &m in graph.node_meshes(node) {
                let last = &mut self.last_end[m as usize];
                *last = last.max(end);
            }

            if let Some(m) = metrics.as_deref_mut() {
                let kind = [("kind", graph.kind(node).label())];
                m.counter_inc("estimator/queue_pops", &kind);
                m.counter_add("estimator/node_seconds", &kind, duration);
                if start > time {
                    m.counter_inc("estimator/device_serializations", &kind);
                    m.counter_add("estimator/serialization_delay_seconds", &kind, start - time);
                }
            }

            // Release children.
            let kids = self.child_start[node] as usize..self.child_start[node + 1] as usize;
            for &j in &self.children[kids] {
                let j = j as usize;
                self.ready[j] = self.ready[j].max(end);
                self.pending[j] -= 1;
                if self.pending[j] == 0 {
                    self.heap.push(Ready {
                        time: self.ready[j],
                        node: j,
                    });
                    if let Some(m) = metrics.as_deref_mut() {
                        m.counter_inc("estimator/releases", &[]);
                    }
                }
            }
        }
        if let Some(m) = metrics {
            m.gauge_set("estimator/makespan_seconds", &[], max_end);
        }
        max_end
    }
}

/// [`Simulator::makespan`] on a fresh simulator.
pub fn makespan(graph: &AugGraph) -> f64 {
    Simulator::new().makespan(graph)
}

/// [`Simulator::makespan_instrumented`] on a fresh simulator.
pub fn makespan_instrumented(graph: &AugGraph, metrics: &mut MetricsRegistry) -> f64 {
    Simulator::new().makespan_instrumented(graph, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::NodeKind;
    use real_cluster::{ClusterSpec, DeviceMesh};

    /// A node of the reference oracle: meshes and parents as owned lists,
    /// with overlap tested mesh by mesh, independent of the kernel's mesh
    /// ids, conflict sets and CSR lists.
    struct RefNode {
        kind: NodeKind,
        duration: f64,
        meshes: Vec<DeviceMesh>,
        parents: Vec<usize>,
    }

    impl RefNode {
        fn overlaps(&self, other: &RefNode) -> bool {
            self.meshes
                .iter()
                .any(|a| other.meshes.iter().any(|b| a.overlaps(b)))
        }
    }

    /// The O(n²) reference: every pop scans every completed node for an
    /// overlap and every later node for a parent edge.
    fn reference(nodes: &[RefNode], mut metrics: Option<&mut MetricsRegistry>) -> f64 {
        if nodes.is_empty() {
            if let Some(m) = metrics {
                m.gauge_set("estimator/makespan_seconds", &[], 0.0);
            }
            return 0.0;
        }
        let n = nodes.len();
        let mut ready_time = vec![0.0f64; n];
        let mut pending: Vec<usize> = nodes.iter().map(|v| v.parents.len()).collect();
        let mut end_time = vec![f64::NAN; n];
        let mut completed: Vec<usize> = Vec::with_capacity(n);
        let mut heap = BinaryHeap::new();
        for (i, &p) in pending.iter().enumerate() {
            if p == 0 {
                heap.push(Ready { time: 0.0, node: i });
            }
        }
        let mut max_end = 0.0f64;
        while let Some(Ready { time, node }) = heap.pop() {
            let mut start = time;
            for &c in &completed {
                if nodes[c].overlaps(&nodes[node]) {
                    start = start.max(end_time[c]);
                }
            }
            let end = start + nodes[node].duration;
            end_time[node] = end;
            max_end = max_end.max(end);
            completed.push(node);
            if let Some(m) = metrics.as_deref_mut() {
                let kind = [("kind", nodes[node].kind.label())];
                m.counter_inc("estimator/queue_pops", &kind);
                m.counter_add("estimator/node_seconds", &kind, nodes[node].duration);
                if start > time {
                    m.counter_inc("estimator/device_serializations", &kind);
                    m.counter_add("estimator/serialization_delay_seconds", &kind, start - time);
                }
            }
            for (j, cand) in nodes.iter().enumerate().skip(node + 1) {
                if cand.parents.contains(&node) {
                    ready_time[j] = ready_time[j].max(end);
                    pending[j] -= 1;
                    if pending[j] == 0 {
                        heap.push(Ready {
                            time: ready_time[j],
                            node: j,
                        });
                        if let Some(m) = metrics.as_deref_mut() {
                            m.counter_inc("estimator/releases", &[]);
                        }
                    }
                }
            }
        }
        if let Some(m) = metrics {
            m.gauge_set("estimator/makespan_seconds", &[], max_end);
        }
        max_end
    }

    /// A graph of call nodes: `(duration, meshes, parents)` per node.
    fn graph(nodes: &[(f64, &[DeviceMesh], &[usize])]) -> AugGraph {
        let mut g = AugGraph::new();
        for &(duration, meshes, parents) in nodes {
            g.push(NodeKind::Call, duration, meshes, parents);
        }
        g
    }

    fn meshes2() -> (DeviceMesh, DeviceMesh, DeviceMesh) {
        let c = ClusterSpec::h100(2);
        (
            DeviceMesh::whole_nodes(&c, 0, 1).unwrap(),
            DeviceMesh::whole_nodes(&c, 1, 1).unwrap(),
            DeviceMesh::full(&c),
        )
    }

    #[test]
    fn empty_graph_is_zero() {
        assert_eq!(makespan(&AugGraph::new()), 0.0);
    }

    #[test]
    fn chain_sums_durations() {
        let (a, _, _) = meshes2();
        let g = graph(&[(1.0, &[a], &[]), (2.0, &[a], &[0]), (3.0, &[a], &[1])]);
        assert_eq!(makespan(&g), 6.0);
    }

    #[test]
    fn disjoint_meshes_run_concurrently() {
        let (a, b, _) = meshes2();
        let g = graph(&[(5.0, &[a], &[]), (3.0, &[b], &[])]);
        assert_eq!(makespan(&g), 5.0);
    }

    #[test]
    fn overlapping_meshes_serialize_even_without_edges() {
        let (a, _, full) = meshes2();
        let g = graph(&[(5.0, &[a], &[]), (3.0, &[full], &[])]);
        // No dependency, but full overlaps a: they serialize.
        assert_eq!(makespan(&g), 8.0);
    }

    #[test]
    fn diamond_takes_longest_branch() {
        let (a, b, full) = meshes2();
        let g = graph(&[
            (1.0, &[full], &[]),
            (4.0, &[a], &[0]),
            (2.0, &[b], &[0]),
            (1.0, &[full], &[1, 2]),
        ]);
        // 1 + max(4, 2) + 1 = 6.
        assert_eq!(makespan(&g), 6.0);
    }

    #[test]
    fn partial_overlap_through_shared_submesh() {
        let c = ClusterSpec::h100(1);
        let left = DeviceMesh::sub_node(&c, 0, 0, 4).unwrap();
        let right = DeviceMesh::sub_node(&c, 0, 4, 4).unwrap();
        let whole = DeviceMesh::full(&c);
        let g = graph(&[
            (2.0, &[left], &[]),
            (2.0, &[right], &[]),
            (1.0, &[whole], &[]),
        ]);
        // left and right overlap whole; whole is ready at 0 but the
        // scheduler pops lowest-ready-time first (ties by index): left at 0,
        // right at 0 (disjoint → parallel), then whole after both.
        assert_eq!(makespan(&g), 3.0);
    }

    #[test]
    fn two_mesh_nodes_wait_on_both_meshes() {
        let (a, b, _) = meshes2();
        // A reallocation-shaped node on a and b waits for work on either.
        let g = graph(&[(4.0, &[a], &[]), (1.0, &[b], &[]), (2.0, &[b, a], &[])]);
        assert_eq!(makespan(&g), 6.0);
    }

    #[test]
    fn zero_duration_nodes_are_free() {
        let (a, _, _) = meshes2();
        let g = graph(&[(0.0, &[a], &[]), (2.0, &[a], &[0])]);
        assert_eq!(makespan(&g), 2.0);
    }

    #[test]
    fn instrumented_matches_plain_and_counts_queue_events() {
        let (a, _, full) = meshes2();
        let g = graph(&[(5.0, &[a], &[]), (3.0, &[full], &[])]);
        let mut m = real_obs::MetricsRegistry::new();
        let inst = makespan_instrumented(&g, &mut m);
        assert_eq!(inst, makespan(&g));
        let kind = [("kind", "call")];
        assert_eq!(m.get("estimator/queue_pops", &kind).unwrap().scalar(), 2.0);
        assert_eq!(
            m.get("estimator/node_seconds", &kind).unwrap().scalar(),
            8.0
        );
        // The full-mesh node has no edge to the first but stalls behind it
        // on the shared devices — exactly one serialization of 5 seconds.
        assert_eq!(
            m.get("estimator/device_serializations", &kind)
                .unwrap()
                .scalar(),
            1.0
        );
        assert_eq!(
            m.get("estimator/serialization_delay_seconds", &kind)
                .unwrap()
                .scalar(),
            5.0
        );
        assert_eq!(
            m.get("estimator/makespan_seconds", &[]).unwrap().scalar(),
            8.0
        );
    }

    #[test]
    fn instrumented_counts_releases_along_chains() {
        let (a, _, _) = meshes2();
        let g = graph(&[(1.0, &[a], &[]), (2.0, &[a], &[0]), (3.0, &[a], &[1])]);
        let mut m = real_obs::MetricsRegistry::new();
        assert_eq!(makespan_instrumented(&g, &mut m), 6.0);
        assert_eq!(m.get("estimator/releases", &[]).unwrap().scalar(), 2.0);
    }

    #[test]
    #[should_panic(expected = "topologically ordered")]
    fn forward_edges_panic() {
        let (a, _, _) = meshes2();
        graph(&[(1.0, &[a], &[1]), (1.0, &[a], &[])]);
    }

    #[test]
    fn a_reused_simulator_matches_a_fresh_one() {
        let (a, b, full) = meshes2();
        let big = graph(&[
            (1.0, &[full], &[]),
            (4.0, &[a], &[0]),
            (2.0, &[b], &[0]),
            (1.0, &[full], &[1, 2]),
        ]);
        let small = graph(&[(5.0, &[a], &[]), (3.0, &[full], &[])]);
        let mut sim = Simulator::new();
        for g in [&big, &small, &big] {
            assert_eq!(sim.makespan(g).to_bits(), makespan(g).to_bits());
        }
    }

    /// Every mesh of a 16-node cluster (255 of them), whole-node spans
    /// first, so random graphs easily hold more than 64 distinct meshes.
    fn mesh_pool() -> &'static [DeviceMesh] {
        static POOL: std::sync::OnceLock<Vec<DeviceMesh>> = std::sync::OnceLock::new();
        POOL.get_or_init(|| {
            let mut pool = DeviceMesh::enumerate(&ClusterSpec::h100(16));
            pool.sort_by_key(|m| std::cmp::Reverse(m.n_nodes()));
            pool
        })
    }

    /// Maps a draw to a mesh: a third of the draws are uniform over the
    /// pool, the rest hit its first 45 meshes (the spans and node 0's
    /// slices), which overlap densely.
    fn pick(m: usize) -> DeviceMesh {
        let pool = mesh_pool();
        if m.is_multiple_of(3) {
            pool[m / 3 % pool.len()]
        } else {
            pool[m % 45]
        }
    }

    /// One random node: a duration index, a mesh pick, a second mesh pick
    /// (none from 10 000 up), and parent picks (reduced modulo the node's
    /// index, so repeats are duplicate parents).
    type NodeDraw = (usize, usize, usize, Vec<usize>);

    fn node_draw() -> impl proptest::Strategy<Value = NodeDraw> {
        (
            0usize..6,
            0usize..10_000,
            0usize..20_000,
            proptest::collection::vec(0usize..10_000, 0..4),
        )
    }

    /// Builds the kernel's graph and the reference's node list from the
    /// same draws. Durations come from a small set with zero and repeats,
    /// so equal ready times are common; the builder collapses duplicate
    /// parents, and the reference gets the collapsed list, as
    /// `Template::instantiate` always produced.
    fn both(draws: &[NodeDraw]) -> (AugGraph, Vec<RefNode>) {
        const DURATIONS: [f64; 6] = [0.0, 0.5, 1.0, 1.0, 2.5, 0.125];
        const KINDS: [NodeKind; 3] = [NodeKind::Call, NodeKind::Realloc, NodeKind::Transfer];
        let mut g = AugGraph::new();
        let mut nodes = Vec::new();
        for (i, (d, m0, m1, parents)) in draws.iter().enumerate() {
            let mut meshes = vec![pick(*m0)];
            if *m1 < 10_000 {
                meshes.push(pick(*m1));
            }
            let mut parents: Vec<usize> = if i == 0 {
                Vec::new()
            } else {
                parents.iter().map(|p| p % i).collect()
            };
            let kind = KINDS[(m0 + i) % 3];
            g.push(kind, DURATIONS[*d], &meshes, &parents);
            parents.sort_unstable();
            parents.dedup();
            nodes.push(RefNode {
                kind,
                duration: DURATIONS[*d],
                meshes,
                parents,
            });
        }
        (g, nodes)
    }

    #[test]
    fn more_than_64_distinct_meshes_are_tracked() {
        let draws: Vec<NodeDraw> = (0..120)
            .map(|i| {
                let second = if i % 2 == 0 { 3 * i + 1 } else { 10_000 };
                (i % 6, 3 * i, second, vec![i * 5, i * 11])
            })
            .collect();
        let (g, nodes) = both(&draws);
        assert!(g.meshes().len() > 64, "{} meshes", g.meshes().len());
        let mut m = MetricsRegistry::new();
        let want = reference(&nodes, Some(&mut m));
        assert_eq!(makespan(&g).to_bits(), want.to_bits());
        let serialized = m
            .get("estimator/device_serializations", &[("kind", "call")])
            .map_or(0.0, |v| v.scalar());
        assert!(serialized > 0.0, "the graph must contend for devices");
    }

    proptest::proptest! {
        /// The `D.last` kernel agrees with the O(n²) scan bit-for-bit, on
        /// the makespan and on every instrumented counter, over random
        /// topologically ordered graphs with two-mesh nodes, zero durations,
        /// equal ready times, duplicate parents and up to 160 meshes of a
        /// 16-node cluster.
        #[test]
        fn kernel_matches_the_quadratic_reference(
            draws in proptest::collection::vec(node_draw(), 0..160),
        ) {
            let (g, nodes) = both(&draws);
            let mut sim = Simulator::new();
            let mut fast = MetricsRegistry::new();
            let mut slow = MetricsRegistry::new();
            let got = sim.makespan_instrumented(&g, &mut fast);
            let want = reference(&nodes, Some(&mut slow));
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
            proptest::prop_assert_eq!(sim.makespan(&g).to_bits(), want.to_bits());
            proptest::prop_assert_eq!(fast.snapshot(), slow.snapshot());
        }
    }
}
