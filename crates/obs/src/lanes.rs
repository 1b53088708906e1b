//! The one lane layout of every Chrome export: [`Scope`] is the only code
//! that picks a Chrome `pid`/`tid` or names a process or thread.
//!
//! [`Scope::cluster`] lays out a solo run: a process per node (`node{n}`,
//! a thread per GPU), a `master` process (a thread per call) and synthetic
//! `faults`, `replan` and `lifecycle` processes. [`Scope::tenant`] keeps
//! every lane of one tenant in its own `tenant:<name>` process. Inside a
//! process, lane kinds sit in disjoint bands of `BAND` thread ids, and
//! the overlap layers of a call or fault lane `LAYER_BANDS` bands apart,
//! so no two lanes can collide.
//!
//! A scope also places a run on the export's clock: [`Scope::shifted`]
//! moves every timestamp recorded through [`Scope::ts`] by a fixed
//! offset, so a tenant admitted late in a multi-tenant schedule is drawn
//! from its admission, not from time zero.

use crate::events::{LaneId, Recorder};

/// Thread ids per band; GPU, call and node indices stay below it.
const BAND: u32 = 1 << 16;

/// Bands between two overlap layers of one call or fault lane.
const LAYER_BANDS: u32 = 1 << 8;

const MASTER_PID: u32 = u32::MAX;
const TENANT_PID_BASE: u32 = 1 << 20;

/// One logical lane of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane<'a> {
    /// Kernel spans of a GPU (global index).
    Gpu(usize),
    /// The master's lane of a call: its index in the graph, overlap layer
    /// and name.
    Call(usize, usize, &'a str),
    /// Injected windows on a GPU (global index), by overlap layer.
    GpuFault(usize, usize),
    /// Injected windows on a node's link, by overlap layer.
    LinkFault(usize, usize),
    /// Re-plan decisions.
    Replan,
    /// A served tenant's lifecycle.
    Lifecycle,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Kind {
    /// GPUs per node.
    Cluster(usize),
    /// Process id and name.
    Tenant(u32, String),
}

/// Where one run's lanes go, and where its clock starts on the export's
/// (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Scope {
    kind: Kind,
    /// Seconds added to every timestamp of the run.
    offset: f64,
}

/// The band of a lane's overlap `layer`, counted from `first`.
fn layer_band(first: u32, layer: usize) -> u32 {
    assert!(layer < 255, "overlap layer {layer} out of range");
    first + layer as u32 * LAYER_BANDS
}

/// A call or fault lane's thread label, `+layer` for overflow layers.
fn layered_label(lane: Lane) -> String {
    let (label, layer) = match lane {
        Lane::Call(_, layer, name) => (name.to_string(), layer),
        Lane::GpuFault(gpu, layer) => (format!("gpu{gpu}"), layer),
        Lane::LinkFault(node, layer) => (format!("node{node}-link"), layer),
        _ => unreachable!("not a layered lane"),
    };
    if layer == 0 {
        label
    } else {
        format!("{label}+{layer}")
    }
}

/// Greedy overlap layering: each span placed goes to the first layer whose
/// previous span ended by its start, so the spans of one layer never
/// overlap and keep monotone timestamps. Placing spans in start order
/// uses the fewest layers.
#[derive(Debug, Clone, Default)]
pub struct OverlapLayers(Vec<f64>);

impl OverlapLayers {
    /// The layer of a span over `[start, end]`.
    pub fn place(&mut self, start: f64, end: f64) -> usize {
        let ends = &mut self.0;
        let layer = ends.iter().position(|&e| e <= start).unwrap_or_else(|| {
            ends.push(f64::NEG_INFINITY);
            ends.len() - 1
        });
        ends[layer] = end;
        layer
    }
}

impl Scope {
    /// A solo run on a cluster with `gpus_per_node` GPUs per node.
    pub fn cluster(gpus_per_node: usize) -> Self {
        assert!(gpus_per_node > 0, "need at least one GPU per node");
        Scope {
            kind: Kind::Cluster(gpus_per_node),
            offset: 0.0,
        }
    }

    /// Tenant number `index` of an export, named `name`.
    pub fn tenant(index: usize, name: &str) -> Self {
        let pid = TENANT_PID_BASE + u32::try_from(index).expect("tenant index fits a pid");
        Scope {
            kind: Kind::Tenant(pid, format!("tenant:{name}")),
            offset: 0.0,
        }
    }

    /// This scope with the run's clock starting at `secs` on the export's
    /// clock.
    pub fn shifted(self, secs: f64) -> Self {
        Scope {
            offset: secs,
            ..self
        }
    }

    /// A timestamp of the run, `t` seconds on its own clock, on the
    /// export's clock.
    pub fn ts(&self, t: f64) -> f64 {
        t + self.offset
    }

    /// The Chrome lane of `lane`, without naming it.
    pub fn lane(&self, lane: Lane) -> LaneId {
        let (pid, band, index) = match (&self.kind, lane) {
            (Kind::Cluster(gpn), Lane::Gpu(gpu)) => ((gpu / gpn) as u32, 0, gpu % gpn),
            (Kind::Cluster(_), Lane::Call(index, layer, _)) => {
                (MASTER_PID, layer_band(0, layer), index)
            }
            (Kind::Cluster(_), Lane::GpuFault(gpu, layer)) => {
                (MASTER_PID - 1, layer_band(0, layer), gpu)
            }
            (Kind::Cluster(_), Lane::LinkFault(node, layer)) => {
                (MASTER_PID - 1, layer_band(1, layer), node)
            }
            (Kind::Cluster(_), Lane::Replan) => (MASTER_PID - 2, 0, 0),
            (Kind::Cluster(_), Lane::Lifecycle) => (MASTER_PID - 3, 0, 0),
            (Kind::Tenant(pid, _), lane) => {
                let (band, index) = match lane {
                    Lane::Lifecycle => (0, 0),
                    Lane::Replan => (0, 1),
                    Lane::Gpu(gpu) => (1, gpu),
                    Lane::Call(index, layer, _) => (layer_band(2, layer), index),
                    Lane::GpuFault(gpu, layer) => (layer_band(3, layer), gpu),
                    Lane::LinkFault(node, layer) => (layer_band(4, layer), node),
                };
                (*pid, band, index)
            }
        };
        assert!(index < BAND as usize, "{index} overflows a band");
        LaneId {
            pid,
            tid: band * BAND + index as u32,
        }
    }

    /// Names `lane`'s process and thread in `recorder`; returns its lane.
    pub fn name(&self, recorder: &mut impl Recorder, lane: Lane) -> LaneId {
        let id = self.lane(lane);
        let (process, thread) = match (&self.kind, lane) {
            (Kind::Cluster(_), Lane::Gpu(_)) => {
                (format!("node{}", id.pid), format!("gpu{}", id.tid))
            }
            (Kind::Cluster(_), Lane::Call(..)) => ("master".into(), layered_label(lane)),
            (Kind::Cluster(_), Lane::GpuFault(..) | Lane::LinkFault(..)) => {
                ("faults".into(), layered_label(lane))
            }
            (Kind::Cluster(_), Lane::Replan) => ("replan".into(), "decisions".into()),
            (Kind::Cluster(_), Lane::Lifecycle) => ("lifecycle".into(), "lifecycle".into()),
            (Kind::Tenant(_, process), lane) => {
                let thread = match lane {
                    Lane::Gpu(gpu) => format!("gpu{gpu}"),
                    Lane::Call(..) => format!("master:{}", layered_label(lane)),
                    Lane::GpuFault(..) | Lane::LinkFault(..) => {
                        format!("fault:{}", layered_label(lane))
                    }
                    Lane::Replan => "replan".into(),
                    Lane::Lifecycle => "lifecycle".into(),
                };
                (process.clone(), thread)
            }
        };
        recorder.set_lane_name(id, &process, &thread);
        id
    }

    /// The process carrying node `node`'s counter tracks.
    pub fn counter_pid(&self, node: usize) -> u32 {
        match &self.kind {
            Kind::Cluster(_) => node as u32,
            Kind::Tenant(pid, _) => *pid,
        }
    }
}

impl LaneId {
    /// GPU `gpu` of node `node` in the cluster scope.
    pub fn gpu(node: u32, gpu: u32) -> Self {
        Self {
            pid: node,
            tid: gpu,
        }
    }

    /// The cluster scope's master lane of call 0.
    pub fn master() -> Self {
        Self {
            pid: MASTER_PID,
            tid: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventStream;
    use std::collections::BTreeSet;

    fn every_lane(name: &str) -> Vec<Lane<'_>> {
        let mut lanes = vec![Lane::Replan, Lane::Lifecycle];
        for i in [0, 1, 7, 8, 255, 4095] {
            lanes.push(Lane::Gpu(i));
            for layer in 0..3 {
                lanes.push(Lane::Call(i, layer, name));
                lanes.push(Lane::GpuFault(i, layer));
                lanes.push(Lane::LinkFault(i, layer));
            }
        }
        lanes
    }

    #[test]
    fn lane_kinds_never_share_a_chrome_lane() {
        for scope in [Scope::cluster(8), Scope::tenant(3, "t")] {
            let lanes = every_lane("c");
            let ids: BTreeSet<LaneId> = lanes.iter().map(|&l| scope.lane(l)).collect();
            assert_eq!(ids.len(), lanes.len(), "{scope:?}");
        }
    }

    #[test]
    fn tenant_scope_keeps_every_lane_in_its_process() {
        let a = Scope::tenant(0, "a");
        let b = Scope::tenant(1, "b");
        let mut s = EventStream::default();
        for lane in every_lane("gen") {
            assert_eq!(a.name(&mut s, lane).pid, a.counter_pid(0));
            assert_ne!(a.lane(lane).pid, b.lane(lane).pid);
        }
        let procs: Vec<_> = s.process_names().collect();
        assert_eq!(procs, vec![(a.counter_pid(0), "tenant:a")]);
        assert!(s.thread_names().any(|(_, _, t)| t == "master:gen"));
        assert!(s.thread_names().any(|(_, _, t)| t == "master:gen+2"));
        assert!(s.thread_names().any(|(_, _, t)| t == "fault:node7-link+2"));
    }

    #[test]
    fn cluster_scope_is_the_solo_layout() {
        let scope = Scope::cluster(8);
        assert_eq!(scope.lane(Lane::Gpu(9)), LaneId::gpu(1, 1));
        assert_eq!(scope.lane(Lane::Call(0, 0, "x")), LaneId::master());
        let fault = scope.lane(Lane::LinkFault(2, 1));
        assert_eq!(fault.tid, (1 << 24) + (1 << 16) + 2);
        let mut s = EventStream::default();
        scope.name(&mut s, Lane::GpuFault(3, 1));
        scope.name(&mut s, Lane::Gpu(9));
        let threads: Vec<_> = s.thread_names().collect();
        assert_eq!(
            threads,
            vec![(1, 1, "gpu1"), (u32::MAX - 1, (1 << 24) + 3, "gpu3+1")]
        );
        assert_eq!(scope.counter_pid(1), 1);
    }

    #[test]
    fn a_shifted_scope_moves_timestamps_not_lanes() {
        let scope = Scope::tenant(2, "late");
        let late = scope.clone().shifted(40.0);
        assert_eq!(late.lane(Lane::Gpu(3)), scope.lane(Lane::Gpu(3)));
        assert_eq!(late.ts(1.5), 41.5);
        // An unshifted scope leaves every timestamp's bits alone.
        for t in [0.0, 1e-300, 0.1, 12345.678] {
            assert_eq!(scope.ts(t).to_bits(), f64::to_bits(t));
        }
    }

    #[test]
    fn overlap_layers_are_greedy_and_never_overlap() {
        let mut layers = OverlapLayers::default();
        let spans = [(0.0, 4.0), (1.0, 2.0), (2.0, 3.0), (3.5, 5.0), (4.0, 6.0)];
        let placed: Vec<usize> = spans.iter().map(|&(a, b)| layers.place(a, b)).collect();
        // Back-to-back spans share a layer.
        assert_eq!(placed, vec![0, 1, 1, 1, 0]);
    }
}
