//! Phase attribution and the `ProfileReport` behind `real profile`.
//!
//! Turns a run's closed spans ([`SpanSet`], recorded straight off the run
//! or replayed from an [`EventStream`]) into the paper's evaluation views:
//! Fig. 8 phase shares (where every second of makespan went), Fig. 10/11
//! per-GPU utilization and comm-vs-compute overlap, and the critical-path
//! table from [`crate::critpath`]. The report serializes deterministically
//! (serde JSON, fixed field and row order), renders as human tables, and
//! diffs against a committed baseline for the CI regression gate
//! (`real profile --baseline b.json --check`).
//!
//! # Phase model
//!
//! Every instant of `[0, makespan]` is attributed to exactly one [`Phase`].
//! Phase-bearing spans are the master-lane call spans (categories
//! `call/gen`, `call/train`, `call/inf`), reallocation and transfer spans
//! from the simulator (`realloc`, `transfer`), and retry-backoff windows
//! (`backoff`). Where phases overlap, a fixed precedence picks one —
//! reallocation and transfers over the calls they serve, backoff over the
//! call it stalls — and uncovered time is `idle`. The sweep is exhaustive
//! by construction, so
//!
//! ```text
//! sum(phase seconds) == makespan
//! ```
//!
//! is a conservation invariant the proptests pin down.

use crate::critpath::{reconstruct_spans, CritEntry, CriticalPath, SpanSet, EPS};
use crate::events::EventStream;
use serde::{Deserialize, Serialize};

/// A named slice of the run's makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Parameter-reallocation prologue (`realloc` spans).
    Realloc,
    /// Inter-call data transfer (`transfer` spans).
    Transfer,
    /// Retry backoff after an aborted attempt (`backoff` spans).
    RetryBackoff,
    /// Generation calls (`call/gen`).
    Generation,
    /// Training calls (`call/train`).
    Training,
    /// Inference calls (`call/inf`).
    Inference,
    /// No phase-bearing span active.
    Idle,
}

impl Phase {
    /// Every phase, in attribution-precedence order (highest first); the
    /// order is also the fixed row order of [`ProfileReport::phases`].
    pub const ALL: [Phase; 7] = [
        Phase::Realloc,
        Phase::Transfer,
        Phase::RetryBackoff,
        Phase::Generation,
        Phase::Training,
        Phase::Inference,
        Phase::Idle,
    ];

    /// Stable snake-ish name used in reports and baselines.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Realloc => "realloc",
            Phase::Transfer => "transfer",
            Phase::RetryBackoff => "retry-backoff",
            Phase::Generation => "generation",
            Phase::Training => "training",
            Phase::Inference => "inference",
            Phase::Idle => "idle",
        }
    }

    /// Position in [`Phase::ALL`] (lower = higher precedence).
    fn index(self) -> usize {
        Phase::ALL.iter().position(|&p| p == self).expect("in ALL")
    }
}

/// Maps a span category to its phase, if it bears one. Kernel-level
/// categories (`compute`, `launch`, `*-comm`) return `None`: their time is
/// covered by the enclosing call span.
pub fn phase_of_category(category: &str) -> Option<Phase> {
    match category {
        "realloc" => Some(Phase::Realloc),
        "transfer" => Some(Phase::Transfer),
        "backoff" => Some(Phase::RetryBackoff),
        "call/gen" => Some(Phase::Generation),
        "call/train" => Some(Phase::Training),
        "call/inf" => Some(Phase::Inference),
        _ => None,
    }
}

/// One phase's share of the makespan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseShare {
    /// Phase name (see [`Phase::name`]).
    pub phase: String,
    /// Seconds attributed to the phase.
    pub seconds: f64,
    /// `seconds / makespan` (0 when the makespan is 0).
    pub share: f64,
}

/// Attributes every instant of `[0, makespan]` to one phase via a sorted
/// boundary sweep over the phase-bearing spans. Returns one entry per
/// [`Phase`], in `Phase::ALL` order; the seconds sum to the makespan.
pub fn attribute_phases(spans: &SpanSet, makespan: f64) -> Vec<PhaseShare> {
    // Boundary events: (ts, phase index, +1/-1), clamped to the makespan.
    let mut bounds: Vec<(f64, usize, i32)> = Vec::new();
    for s in spans.spans() {
        if let Some(p) = phase_of_category(spans.str(s.category)) {
            let (a, b) = (s.start.clamp(0.0, makespan), s.end.clamp(0.0, makespan));
            if b - a > 0.0 {
                bounds.push((a, p.index(), 1));
                bounds.push((b, p.index(), -1));
            }
        }
    }
    bounds.sort_by(|x, y| {
        x.0.partial_cmp(&y.0)
            .expect("span times are finite")
            .then(x.1.cmp(&y.1))
            .then(x.2.cmp(&y.2))
    });
    let mut active = [0i64; Phase::ALL.len()];
    let mut seconds = [0.0f64; Phase::ALL.len()];
    let mut prev = 0.0;
    let credit = |active: &[i64], from: f64, to: f64, secs: &mut [f64]| {
        if to <= from {
            return;
        }
        let winner = Phase::ALL
            .iter()
            .position(|p| *p != Phase::Idle && active[p.index()] > 0)
            .unwrap_or(Phase::Idle.index());
        secs[winner] += to - from;
    };
    for (ts, idx, delta) in bounds {
        credit(&active, prev, ts, &mut seconds);
        prev = prev.max(ts);
        active[idx] += i64::from(delta);
    }
    credit(&active, prev, makespan, &mut seconds);
    Phase::ALL
        .iter()
        .map(|p| PhaseShare {
            phase: p.name().to_string(),
            seconds: seconds[p.index()],
            share: if makespan > 0.0 {
                seconds[p.index()] / makespan
            } else {
                0.0
            },
        })
        .collect()
}

/// Sub-row names of the generation breakdown, in attribution-precedence
/// order (highest first); also the fixed row order of
/// [`ProfileReport::gen_breakdown`].
pub const GEN_SUBROWS: [&str; 4] = ["gen/draft", "gen/verify", "gen/fallback", "gen/other"];

/// Classifies a kernel-span name into a generation sub-row index
/// (position in [`GEN_SUBROWS`]), if it is one of the speculative-decoding
/// span labels the runtime emits.
fn gen_subrow(name: &str) -> Option<usize> {
    match name {
        "spec_draft_prefill" | "spec_draft_decode" => Some(0),
        "spec_verify_fwd" => Some(1),
        "spec_fallback_decode" => Some(2),
        _ => None,
    }
}

/// Splits the `generation` phase into `gen/draft`, `gen/verify`,
/// `gen/fallback`, and `gen/other` sub-rows when speculative decoding is
/// active — i.e. when any speculative kernel span appears in `spans`.
/// Returns an empty vector otherwise, so non-speculative reports are
/// untouched.
///
/// The sweep reproduces [`attribute_phases`]'s precedence exactly and, on
/// every instant attributed to [`Phase::Generation`], picks the active
/// sub-span of highest precedence (draft over verify over fallback), with
/// `gen/other` absorbing generation time outside any speculative span
/// (prefill, sampling head, plain decode of other calls). The sub-row
/// seconds therefore sum to the `generation` row of [`attribute_phases`]
/// bit-exactly — the conservation invariant the tests pin.
pub fn attribute_generation(spans: &SpanSet, makespan: f64) -> Vec<PhaseShare> {
    if !spans
        .spans()
        .iter()
        .any(|s| gen_subrow(spans.str(s.name)).is_some())
    {
        return Vec::new();
    }
    // Boundary events: phase spans tagged `[0, ALL)`, speculative sub-spans
    // tagged `ALL + subrow`.
    const SUB_BASE: usize = Phase::ALL.len();
    let mut bounds: Vec<(f64, usize, i32)> = Vec::new();
    for s in spans.spans() {
        let tag = if let Some(p) = phase_of_category(spans.str(s.category)) {
            Some(p.index())
        } else {
            gen_subrow(spans.str(s.name)).map(|j| SUB_BASE + j)
        };
        if let Some(tag) = tag {
            let (a, b) = (s.start.clamp(0.0, makespan), s.end.clamp(0.0, makespan));
            if b - a > 0.0 {
                bounds.push((a, tag, 1));
                bounds.push((b, tag, -1));
            }
        }
    }
    bounds.sort_by(|x, y| {
        x.0.partial_cmp(&y.0)
            .expect("span times are finite")
            .then(x.1.cmp(&y.1))
            .then(x.2.cmp(&y.2))
    });
    let mut active = [0i64; SUB_BASE + GEN_SUBROWS.len()];
    let mut seconds = [0.0f64; GEN_SUBROWS.len()];
    let mut prev = 0.0;
    let credit = |active: &[i64], from: f64, to: f64, secs: &mut [f64]| {
        if to <= from {
            return;
        }
        let winner = Phase::ALL
            .iter()
            .position(|p| *p != Phase::Idle && active[p.index()] > 0)
            .unwrap_or(Phase::Idle.index());
        if winner != Phase::Generation.index() {
            return;
        }
        let sub = (0..GEN_SUBROWS.len() - 1)
            .find(|j| active[SUB_BASE + j] > 0)
            .unwrap_or(GEN_SUBROWS.len() - 1);
        secs[sub] += to - from;
    };
    for (ts, idx, delta) in bounds {
        credit(&active, prev, ts, &mut seconds);
        prev = prev.max(ts);
        active[idx] += i64::from(delta);
    }
    credit(&active, prev, makespan, &mut seconds);
    GEN_SUBROWS
        .iter()
        .zip(seconds)
        .map(|(name, secs)| PhaseShare {
            phase: (*name).to_string(),
            seconds: secs,
            share: if makespan > 0.0 { secs / makespan } else { 0.0 },
        })
        .collect()
}

/// Wall seconds during which spans of phase `a` and spans of phase `b`
/// were simultaneously active anywhere in the run — the measured
/// generation/training overlap of an async off-policy run, for example.
/// Unlike [`attribute_phases`] (which tiles the makespan, so precedence
/// hides concurrency), this reports the raw intersection of the two
/// phases' active-time unions.
///
/// # Examples
///
/// ```
/// use real_obs::{LaneId, Recorder, SpanSet};
/// use real_obs::profile::{phase_overlap, Phase};
///
/// let mut s = SpanSet::default();
/// let m = LaneId::master();
/// // Training [0, 8] overlaps next iteration's generation [5, 9].
/// s.span(m, "actor_train#0", "call/train", 0.0, 8.0);
/// s.span(m, "actor_gen#1", "call/gen", 5.0, 9.0);
/// let secs = phase_overlap(&s, Phase::Generation, Phase::Training);
/// assert!((secs - 3.0).abs() < 1e-9);
/// ```
pub fn phase_overlap(spans: &SpanSet, a: Phase, b: Phase) -> f64 {
    let of = |phase: Phase| {
        let mut iv: Vec<(f64, f64)> = spans
            .spans()
            .iter()
            .filter(|s| phase_of_category(spans.str(s.category)) == Some(phase))
            .map(|s| (s.start, s.end))
            .collect();
        merge_intervals(&mut iv);
        iv
    };
    intersection_len(&of(a), &of(b))
}

/// Kernel-level categories the simulator records on GPU lanes.
const SIM_CATEGORIES: [&str; 7] = [
    "compute", "launch", "tp-comm", "pp-comm", "dp-comm", "realloc", "transfer",
];

const COMPUTE_CATEGORIES: [&str; 2] = ["compute", "launch"];

/// Utilization and idle-gap statistics for one GPU lane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuStat {
    /// Lane name (`node0/gpu3`).
    pub lane: String,
    /// Seconds with at least one kernel span active.
    pub busy_seconds: f64,
    /// `makespan - busy_seconds`.
    pub idle_seconds: f64,
    /// `busy_seconds / makespan`.
    pub utilization: f64,
    /// Number of idle gaps (> [`EPS`]) within `[0, makespan]`.
    pub gaps: u64,
    /// Longest single idle gap.
    pub longest_gap_seconds: f64,
}

/// Cluster-wide comm-vs-compute overlap, in GPU-seconds summed over lanes.
///
/// The four buckets tile each GPU lane's `[0, makespan]`, so they sum to
/// `n_gpu_lanes * makespan`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OverlapStats {
    /// Compute (or launch) active, no communication.
    pub compute_only_seconds: f64,
    /// Communication (TP/PP/DP, realloc, transfer) active, no compute.
    pub comm_only_seconds: f64,
    /// Both active at once (communication hidden behind compute).
    pub overlap_seconds: f64,
    /// Neither active (idle).
    pub neither_seconds: f64,
}

/// Merges `(start, end)` intervals, in place, into a disjoint sorted union.
fn merge_intervals(iv: &mut Vec<(f64, f64)>) {
    iv.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite")
            .then(a.1.partial_cmp(&b.1).expect("finite"))
    });
    let mut merged = 0;
    for k in 0..iv.len() {
        let (a, b) = iv[k];
        if b <= a {
            continue;
        }
        if merged > 0 && a <= iv[merged - 1].1 + EPS {
            iv[merged - 1].1 = iv[merged - 1].1.max(b);
        } else {
            iv[merged] = (a, b);
            merged += 1;
        }
    }
    iv.truncate(merged);
}

fn union_len(iv: &[(f64, f64)]) -> f64 {
    iv.iter().map(|(a, b)| b - a).sum()
}

/// Seconds two disjoint, sorted interval unions are active at once.
pub fn intersection_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (mut i, mut j, mut total) = (0, 0, 0.0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Estimator-vs-simulated wall time for one function call (Fig. 12).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CallGap {
    /// Call name (e.g. `actor_gen`).
    pub call: String,
    /// Algorithm-1 estimate for the assigned placement, seconds.
    pub estimated_secs: f64,
    /// Mean simulated wall time across iterations, seconds.
    pub simulated_secs: f64,
    /// `(simulated - estimated) / estimated`, in percent.
    pub gap_pct: f64,
}

impl CallGap {
    /// Builds a gap entry, guarding a zero estimate.
    pub fn new(call: impl Into<String>, estimated_secs: f64, simulated_secs: f64) -> Self {
        let gap_pct = if estimated_secs > 0.0 {
            (simulated_secs - estimated_secs) / estimated_secs * 100.0
        } else {
            0.0
        };
        Self {
            call: call.into(),
            estimated_secs,
            simulated_secs,
            gap_pct,
        }
    }
}

/// A named p50/p95/p99 summary (idle gaps, sched stretch, queue waits).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PercentileSummary {
    /// What was summarized (e.g. `gpu-idle-gap-seconds`).
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl PercentileSummary {
    /// Summarizes a sample set (zeros when empty).
    pub fn from_values(name: impl Into<String>, values: &[f64]) -> Self {
        let q = |p| real_util::stats::percentile(values, p).unwrap_or(0.0);
        Self {
            name: name.into(),
            count: values.len() as u64,
            p50: q(50.0),
            p95: q(95.0),
            p99: q(99.0),
            max: values.iter().fold(0.0f64, |m, &v| m.max(v)),
        }
    }
}

/// The complete output of `real profile`: every view the paper's evaluation
/// figures need, serializable as a committed baseline.
///
/// `Serialize`/`Deserialize` are hand-written (not derived) so that
/// [`ProfileReport::gen_breakdown`] — which only exists for speculative
/// runs — is omitted from the JSON when empty. Non-speculative reports
/// therefore serialize byte-identically to the pre-speculation format, and
/// baselines committed before the field existed still deserialize.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Virtual makespan of the run.
    pub makespan: f64,
    /// Phase attribution (sums to `makespan`), in [`Phase::ALL`] order.
    pub phases: Vec<PhaseShare>,
    /// Top-k critical-path entries, largest gating time first.
    pub critical_path: Vec<CritEntry>,
    /// Critical-path seconds spent inside spans.
    pub crit_span_seconds: f64,
    /// Critical-path seconds spent waiting (no span running anywhere).
    pub crit_wait_seconds: f64,
    /// Per-GPU utilization, lane order.
    pub gpus: Vec<GpuStat>,
    /// Cluster-wide comm-vs-compute overlap.
    pub overlap: OverlapStats,
    /// Estimator-vs-simulated per-call gaps (empty in trace-only mode).
    pub estimator_gap: Vec<CallGap>,
    /// Distribution summaries (GPU idle gaps; sched stretch when present).
    pub percentiles: Vec<PercentileSummary>,
    /// Speculative-decoding split of the `generation` phase, in
    /// [`GEN_SUBROWS`] order; empty when the run decoded plainly (see
    /// [`attribute_generation`]).
    pub gen_breakdown: Vec<PhaseShare>,
}

impl Serialize for ProfileReport {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("makespan".to_string(), self.makespan.to_value()),
            ("phases".to_string(), self.phases.to_value()),
            ("critical_path".to_string(), self.critical_path.to_value()),
            (
                "crit_span_seconds".to_string(),
                self.crit_span_seconds.to_value(),
            ),
            (
                "crit_wait_seconds".to_string(),
                self.crit_wait_seconds.to_value(),
            ),
            ("gpus".to_string(), self.gpus.to_value()),
            ("overlap".to_string(), self.overlap.to_value()),
            ("estimator_gap".to_string(), self.estimator_gap.to_value()),
            ("percentiles".to_string(), self.percentiles.to_value()),
        ];
        if !self.gen_breakdown.is_empty() {
            fields.push(("gen_breakdown".to_string(), self.gen_breakdown.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for ProfileReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        fn field<T: Deserialize>(v: &serde::Value, key: &str) -> Result<T, serde::Error> {
            let f = v
                .get(key)
                .ok_or_else(|| serde::Error::custom(format!("missing field `{key}`")))?;
            T::from_value(f)
        }
        Ok(Self {
            makespan: field(v, "makespan")?,
            phases: field(v, "phases")?,
            critical_path: field(v, "critical_path")?,
            crit_span_seconds: field(v, "crit_span_seconds")?,
            crit_wait_seconds: field(v, "crit_wait_seconds")?,
            gpus: field(v, "gpus")?,
            overlap: field(v, "overlap")?,
            estimator_gap: field(v, "estimator_gap")?,
            percentiles: field(v, "percentiles")?,
            gen_breakdown: match v.get("gen_breakdown") {
                Some(f) => Deserialize::from_value(f)?,
                None => Vec::new(),
            },
        })
    }
}

impl ProfileReport {
    /// Builds the report of a saved or exported stream: its closed spans'
    /// report (see [`ProfileReport::from_spans`]).
    pub fn from_stream(stream: &EventStream, top_k: usize) -> Self {
        Self::from_spans(&reconstruct_spans(stream), top_k)
    }

    /// Builds the span-derivable part of the report (everything except
    /// [`ProfileReport::estimator_gap`], which needs the estimator and is
    /// filled by the caller when the run was planned in-process).
    pub fn from_spans(spans: &SpanSet, top_k: usize) -> Self {
        let makespan = crate::critpath::makespan(spans);
        let cp = CriticalPath::extract(spans, makespan);
        let critical_path = cp.top_spans(spans, top_k);
        let phases = attribute_phases(spans, makespan);
        let gen_breakdown = attribute_generation(spans, makespan);

        // Lane names for the per-GPU views.
        let lane_name = |lane: crate::events::LaneId| -> String {
            let proc = spans
                .process_name(lane.pid)
                .map_or_else(|| format!("pid{}", lane.pid), str::to_string);
            let thread = spans
                .thread_name(lane)
                .map_or_else(|| format!("tid{}", lane.tid), str::to_string);
            format!("{proc}/{thread}")
        };

        // Kernel spans grouped by lane, one lane's intervals at a time: a
        // stable sort keeps record order within a lane, and lanes come in
        // `LaneId` order.
        let all = spans.spans();
        let n = u32::try_from(all.len()).expect("fewer than 2^32 spans");
        let mut kernels: Vec<u32> = Vec::with_capacity(all.len());
        kernels.extend(
            (0..n).filter(|&i| SIM_CATEGORIES.contains(&spans.str(all[i as usize].category))),
        );
        kernels.sort_by_key(|&i| spans.lane(all[i as usize].lane));

        let mut gpus = Vec::new();
        let mut overlap = OverlapStats::default();
        let mut gap_samples: Vec<f64> = Vec::new();
        let (mut compute, mut comm, mut busy) = (Vec::new(), Vec::new(), Vec::new());
        for lane_kernels in kernels.chunk_by(|&i, &j| all[i as usize].lane == all[j as usize].lane)
        {
            compute.clear();
            comm.clear();
            for &i in lane_kernels {
                let s = &all[i as usize];
                if COMPUTE_CATEGORIES.contains(&spans.str(s.category)) {
                    compute.push((s.start, s.end));
                } else {
                    comm.push((s.start, s.end));
                }
            }
            merge_intervals(&mut compute);
            merge_intervals(&mut comm);
            busy.clear();
            busy.extend_from_slice(&compute);
            busy.extend_from_slice(&comm);
            merge_intervals(&mut busy);

            let compute_len = union_len(&compute);
            let comm_len = union_len(&comm);
            let both = intersection_len(&compute, &comm);
            overlap.compute_only_seconds += compute_len - both;
            overlap.comm_only_seconds += comm_len - both;
            overlap.overlap_seconds += both;
            overlap.neither_seconds += makespan - union_len(&busy);

            // Idle gaps within [0, makespan], including lead-in and tail.
            let mut gaps = 0u64;
            let mut longest = 0.0f64;
            let mut cursor = 0.0;
            for &(a, b) in busy.iter().chain(std::iter::once(&(makespan, makespan))) {
                let gap = a.min(makespan) - cursor;
                if gap > EPS {
                    gaps += 1;
                    longest = longest.max(gap);
                    gap_samples.push(gap);
                }
                cursor = cursor.max(b.min(makespan));
            }
            let busy_seconds = union_len(&busy);
            gpus.push(GpuStat {
                lane: lane_name(spans.lane(all[lane_kernels[0] as usize].lane)),
                busy_seconds,
                idle_seconds: makespan - busy_seconds,
                utilization: if makespan > 0.0 {
                    busy_seconds / makespan
                } else {
                    0.0
                },
                gaps,
                longest_gap_seconds: longest,
            });
        }

        Self {
            makespan,
            phases,
            critical_path,
            crit_span_seconds: cp.span_seconds,
            crit_wait_seconds: cp.wait_seconds,
            gpus,
            overlap,
            estimator_gap: Vec::new(),
            percentiles: vec![PercentileSummary::from_values(
                "gpu-idle-gap-seconds",
                &gap_samples,
            )],
            gen_breakdown,
        }
    }

    /// Fraction of the makespan attributed to non-idle phases.
    pub fn attributed_fraction(&self) -> f64 {
        self.phases
            .iter()
            .filter(|p| p.phase != "idle")
            .map(|p| p.share)
            .sum()
    }

    /// Renders the human-readable profile.
    pub fn render(&self) -> String {
        let mut out = format!("makespan: {:.2}s\n\n", self.makespan);

        let mut t = real_util::Table::new(vec!["phase", "seconds", "share"]);
        for p in &self.phases {
            t.row(vec![
                p.phase.clone(),
                format!("{:.2}", p.seconds),
                format!("{:.1}%", p.share * 100.0),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "attributed to non-idle phases: {:.1}%\n\n",
            self.attributed_fraction() * 100.0
        ));

        if !self.gen_breakdown.is_empty() {
            let mut t = real_util::Table::new(vec!["generation sub-phase", "seconds", "share"]);
            for p in &self.gen_breakdown {
                t.row(vec![
                    p.phase.clone(),
                    format!("{:.2}", p.seconds),
                    format!("{:.1}%", p.share * 100.0),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }

        let mut t = real_util::Table::new(vec!["critical-path span", "category", "seconds", "n"]);
        for e in &self.critical_path {
            t.row(vec![
                e.name.clone(),
                e.category.clone(),
                format!("{:.2}", e.seconds),
                e.count.to_string(),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(&format!(
            "critical path: {:.2}s in spans + {:.2}s waiting\n\n",
            self.crit_span_seconds, self.crit_wait_seconds
        ));

        if !self.gpus.is_empty() {
            let mut t =
                real_util::Table::new(vec!["gpu", "busy (s)", "util", "gaps", "longest gap (s)"]);
            for g in &self.gpus {
                t.row(vec![
                    g.lane.clone(),
                    format!("{:.2}", g.busy_seconds),
                    format!("{:.1}%", g.utilization * 100.0),
                    g.gaps.to_string(),
                    format!("{:.2}", g.longest_gap_seconds),
                ]);
            }
            out.push_str(&t.render());
            out.push_str(&format!(
                "overlap: {:.2} GPU-s compute-only, {:.2} comm-only, \
                 {:.2} overlapped, {:.2} idle\n\n",
                self.overlap.compute_only_seconds,
                self.overlap.comm_only_seconds,
                self.overlap.overlap_seconds,
                self.overlap.neither_seconds,
            ));
        }

        if !self.estimator_gap.is_empty() {
            let mut t =
                real_util::Table::new(vec!["call", "estimated (s)", "simulated (s)", "gap"]);
            for g in &self.estimator_gap {
                t.row(vec![
                    g.call.clone(),
                    format!("{:.2}", g.estimated_secs),
                    format!("{:.2}", g.simulated_secs),
                    format!("{:+.1}%", g.gap_pct),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }

        let mut t = real_util::Table::new(vec!["distribution", "n", "p50", "p95", "p99", "max"]);
        for p in &self.percentiles {
            t.row(vec![
                p.name.clone(),
                p.count.to_string(),
                format!("{:.3}", p.p50),
                format!("{:.3}", p.p95),
                format!("{:.3}", p.p99),
                format!("{:.3}", p.max),
            ]);
        }
        out.push_str(&t.render());
        out
    }

    /// Diffs this report against a committed baseline. Returns one message
    /// per violation (empty = within tolerance): makespan relative drift,
    /// per-phase share drift (absolute percentage points), and
    /// critical-path composition drift (per-category share of makespan).
    pub fn check_against(&self, baseline: &ProfileReport, tolerance_pct: f64) -> Vec<String> {
        let mut violations = Vec::new();
        if baseline.makespan > 0.0 {
            let drift = (self.makespan - baseline.makespan) / baseline.makespan * 100.0;
            if drift.abs() > tolerance_pct {
                violations.push(format!(
                    "makespan drifted {drift:+.1}% ({:.2}s -> {:.2}s; tolerance {tolerance_pct}%)",
                    baseline.makespan, self.makespan
                ));
            }
        }
        for base in &baseline.phases {
            let cur = self
                .phases
                .iter()
                .find(|p| p.phase == base.phase)
                .map_or(0.0, |p| p.share);
            let drift_pp = (cur - base.share) * 100.0;
            if drift_pp.abs() > tolerance_pct {
                violations.push(format!(
                    "phase `{}` share drifted {drift_pp:+.1}pp ({:.1}% -> {:.1}%; tolerance {tolerance_pct}pp)",
                    base.phase,
                    base.share * 100.0,
                    cur * 100.0,
                ));
            }
        }
        for base in &baseline.gen_breakdown {
            let cur = self
                .gen_breakdown
                .iter()
                .find(|p| p.phase == base.phase)
                .map_or(0.0, |p| p.share);
            let drift_pp = (cur - base.share) * 100.0;
            if drift_pp.abs() > tolerance_pct {
                violations.push(format!(
                    "generation sub-phase `{}` share drifted {drift_pp:+.1}pp ({:.1}% -> {:.1}%; tolerance {tolerance_pct}pp)",
                    base.phase,
                    base.share * 100.0,
                    cur * 100.0,
                ));
            }
        }
        if baseline.gen_breakdown.is_empty() {
            for cur in &self.gen_breakdown {
                if cur.share * 100.0 > tolerance_pct {
                    violations.push(format!(
                        "generation sub-phase `{}` is new at {:.1}% of makespan \
                         (baseline was non-speculative; tolerance {tolerance_pct}pp)",
                        cur.phase,
                        cur.share * 100.0,
                    ));
                }
            }
        }
        // Critical-path composition: per-category share of the makespan.
        let comp = |r: &ProfileReport| -> std::collections::BTreeMap<String, f64> {
            let mut m = std::collections::BTreeMap::new();
            if r.makespan > 0.0 {
                for e in &r.critical_path {
                    *m.entry(e.category.clone()).or_insert(0.0) += e.seconds / r.makespan;
                }
            }
            m
        };
        let (base_comp, cur_comp) = (comp(baseline), comp(self));
        for (category, &base_share) in &base_comp {
            let cur_share = cur_comp.get(category).copied().unwrap_or(0.0);
            let drift_pp = (cur_share - base_share) * 100.0;
            if drift_pp.abs() > tolerance_pct {
                violations.push(format!(
                    "critical-path category `{category}` share drifted {drift_pp:+.1}pp \
                     ({:.1}% -> {:.1}%; tolerance {tolerance_pct}pp)",
                    base_share * 100.0,
                    cur_share * 100.0,
                ));
            }
        }
        for (category, &cur_share) in &cur_comp {
            if !base_comp.contains_key(category) && cur_share * 100.0 > tolerance_pct {
                violations.push(format!(
                    "critical-path category `{category}` is new at {:.1}% of makespan \
                     (tolerance {tolerance_pct}pp)",
                    cur_share * 100.0,
                ));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::LaneId;

    fn stream() -> EventStream {
        let mut s = EventStream::with_capacity(0);
        let master = LaneId::master();
        let gpu = LaneId::gpu(0, 0);
        s.set_lane_name(gpu, "node0", "gpu0");
        // Generation [0, 4], realloc [4, 5], training [5, 10].
        s.span(master, "actor_gen#0", "call/gen", 0.0, 4.0);
        s.span(gpu, "gen_kernel", "compute", 0.0, 3.5);
        s.span(gpu, "switch", "realloc", 4.0, 5.0);
        s.span(master, "actor_train#0", "call/train", 5.0, 10.0);
        s.span(gpu, "train_kernel", "compute", 5.0, 9.0);
        s.span(gpu, "grad_allreduce", "dp-comm", 8.5, 9.5);
        s
    }

    #[test]
    fn phases_conserve_makespan() {
        let s = stream();
        let spans = reconstruct_spans(&s);
        let phases = attribute_phases(&spans, 10.0);
        let total: f64 = phases.iter().map(|p| p.seconds).sum();
        assert!((total - 10.0).abs() < 1e-9, "{total}");
        let get = |n: &str| phases.iter().find(|p| p.phase == n).unwrap().seconds;
        assert!((get("generation") - 4.0).abs() < 1e-9);
        assert!((get("realloc") - 1.0).abs() < 1e-9);
        assert!((get("training") - 5.0).abs() < 1e-9);
        assert!((get("idle")).abs() < 1e-9);
    }

    #[test]
    fn phase_overlap_intersects_phase_unions() {
        let mut s = EventStream::with_capacity(0);
        let m = LaneId::master();
        s.span(m, "actor_train#0", "call/train", 0.0, 8.0);
        s.span(m, "actor_gen#1", "call/gen", 5.0, 9.0);
        s.span(m, "actor_gen#2", "call/gen", 7.0, 12.0); // merges with #1
        let s = reconstruct_spans(&s);
        assert!((phase_overlap(&s, Phase::Generation, Phase::Training) - 3.0).abs() < 1e-9);
        // Symmetric, and zero against a phase with no spans.
        assert!((phase_overlap(&s, Phase::Training, Phase::Generation) - 3.0).abs() < 1e-9);
        assert_eq!(phase_overlap(&s, Phase::Generation, Phase::Realloc), 0.0);
    }

    #[test]
    fn realloc_takes_precedence_over_calls() {
        let mut s = EventStream::with_capacity(0);
        s.span(LaneId::master(), "gen#0", "call/gen", 0.0, 10.0);
        s.span(LaneId::gpu(0, 0), "switch", "realloc", 3.0, 5.0);
        let phases = attribute_phases(&reconstruct_spans(&s), 10.0);
        let get = |n: &str| phases.iter().find(|p| p.phase == n).unwrap().seconds;
        assert!((get("generation") - 8.0).abs() < 1e-9);
        assert!((get("realloc") - 2.0).abs() < 1e-9);
    }

    #[test]
    fn backoff_takes_precedence_over_its_enclosing_call() {
        let mut s = EventStream::with_capacity(0);
        let m = LaneId::master();
        s.begin(m, "gen#0", "call/gen", 0.0);
        s.span(m, "backoff", "backoff", 4.0, 6.0);
        s.end(m, 10.0);
        let phases = attribute_phases(&reconstruct_spans(&s), 10.0);
        let get = |n: &str| phases.iter().find(|p| p.phase == n).unwrap().seconds;
        assert!((get("retry-backoff") - 2.0).abs() < 1e-9);
        assert!((get("generation") - 8.0).abs() < 1e-9);
    }

    #[test]
    fn uncovered_time_is_idle() {
        let mut s = EventStream::with_capacity(0);
        s.span(LaneId::master(), "gen#0", "call/gen", 2.0, 6.0);
        let phases = attribute_phases(&reconstruct_spans(&s), 10.0);
        let get = |n: &str| phases.iter().find(|p| p.phase == n).unwrap().seconds;
        assert!((get("idle") - 6.0).abs() < 1e-9);
        assert!((get("generation") - 4.0).abs() < 1e-9);
    }

    #[test]
    fn report_covers_gpus_overlap_and_critical_path() {
        let r = ProfileReport::from_stream(&stream(), 10);
        assert!((r.makespan - 10.0).abs() < 1e-9);
        assert_eq!(r.gpus.len(), 1);
        assert_eq!(r.gpus[0].lane, "node0/gpu0");
        // Busy union: [0,3.5] ∪ [4,5] ∪ [5,9.5] = 9.0s, 3 gaps? lead gap
        // none (starts at 0), [3.5,4] and [9.5,10].
        assert!((r.gpus[0].busy_seconds - 9.0).abs() < 1e-9);
        assert_eq!(r.gpus[0].gaps, 2);
        // dp-comm [8.5,9.5] overlaps compute [5,9] for 0.5s.
        assert!((r.overlap.overlap_seconds - 0.5).abs() < 1e-9);
        assert!((r.overlap.comm_only_seconds - 1.5).abs() < 1e-9);
        // Phase conservation survives the full pipeline.
        let total: f64 = r.phases.iter().map(|p| p.seconds).sum();
        assert!((total - r.makespan).abs() < 1e-9);
        // Critical path ≤ makespan and the top spans are named.
        assert!(r.crit_span_seconds + r.crit_wait_seconds <= r.makespan + 1e-9);
        assert!(!r.critical_path.is_empty());
        let rendered = r.render();
        assert!(rendered.contains("generation"));
        assert!(rendered.contains("critical path"));
        assert!(rendered.contains("node0/gpu0"));
    }

    #[test]
    fn check_against_flags_makespan_and_share_drift() {
        let base = ProfileReport::from_stream(&stream(), 10);
        assert!(base.check_against(&base, 1.0).is_empty());

        // 20% slower run: makespan and phase shares both drift.
        let mut slow = stream();
        slow.span(LaneId::master(), "actor_train#1", "call/train", 10.0, 12.0);
        let cur = ProfileReport::from_stream(&slow, 10);
        let violations = cur.check_against(&base, 10.0);
        assert!(
            violations.iter().any(|v| v.contains("makespan")),
            "{violations:?}"
        );
    }

    #[test]
    fn report_json_roundtrips() {
        let r = ProfileReport::from_stream(&stream(), 10);
        let json = serde_json::to_string(&r).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        // Serialization is deterministic: same stream, same bytes.
        let again = serde_json::to_string(&ProfileReport::from_stream(&stream(), 10)).unwrap();
        assert_eq!(json, again);
    }

    /// `stream()` plus speculative-decoding kernel spans on a second GPU
    /// lane, all within the generation call `[0, 4]` except a fallback span
    /// that spills past it into the realloc window.
    fn spec_stream() -> EventStream {
        let mut s = stream();
        let draft = LaneId::gpu(1, 0);
        s.set_lane_name(draft, "node1", "gpu0");
        s.span(draft, "spec_draft_prefill", "compute", 0.2, 0.6);
        s.span(draft, "spec_draft_decode", "compute", 0.6, 2.0);
        // Verify overlaps the draft tail [1.8, 2.0]: draft takes precedence.
        s.span(LaneId::gpu(0, 0), "spec_verify_fwd", "compute", 1.8, 2.5);
        // Fallback spills past the generation call into realloc [4, 5]:
        // only [3.8, 4.0] counts.
        s.span(
            LaneId::gpu(0, 0),
            "spec_fallback_decode",
            "compute",
            3.8,
            4.5,
        );
        s
    }

    #[test]
    fn gen_breakdown_tiles_the_generation_phase() {
        let s = spec_stream();
        let spans = reconstruct_spans(&s);
        let phases = attribute_phases(&spans, 10.0);
        let breakdown = attribute_generation(&spans, 10.0);
        let gen = phases
            .iter()
            .find(|p| p.phase == "generation")
            .unwrap()
            .seconds;
        let total: f64 = breakdown.iter().map(|p| p.seconds).sum();
        assert!(
            (total - gen).abs() < 1e-9,
            "sub-rows {total} vs phase {gen}"
        );
        let get = |n: &str| breakdown.iter().find(|p| p.phase == n).unwrap().seconds;
        // Draft union [0.2, 2.0]; verify loses the [1.8, 2.0] overlap;
        // fallback clipped at the call boundary; other is the remainder.
        assert!((get("gen/draft") - 1.8).abs() < 1e-9);
        assert!((get("gen/verify") - 0.5).abs() < 1e-9);
        assert!((get("gen/fallback") - 0.2).abs() < 1e-9);
        assert!((get("gen/other") - 1.5).abs() < 1e-9);
    }

    #[test]
    fn plain_stream_yields_no_breakdown_and_legacy_json() {
        let r = ProfileReport::from_stream(&stream(), 10);
        assert!(r.gen_breakdown.is_empty());
        let json = serde_json::to_string(&r).unwrap();
        // Byte-compatible with reports (and committed baselines) from
        // before the field existed: the key is simply absent...
        assert!(!json.contains("gen_breakdown"), "{json}");
        // ...and such legacy JSON still deserializes, with an empty split.
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert!(back.gen_breakdown.is_empty());
        assert_eq!(r, back);
    }

    #[test]
    fn speculative_report_roundtrips_renders_and_diffs_breakdown() {
        let r = ProfileReport::from_stream(&spec_stream(), 10);
        assert_eq!(r.gen_breakdown.len(), GEN_SUBROWS.len());
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("gen_breakdown"));
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        let rendered = r.render();
        assert!(rendered.contains("gen/draft"));
        assert!(rendered.contains("gen/verify"));
        // Self-diff is clean; against a non-speculative baseline the new
        // sub-rows are flagged.
        assert!(r.check_against(&r, 1.0).is_empty());
        let plain = ProfileReport::from_stream(&stream(), 10);
        let violations = r.check_against(&plain, 1.0);
        assert!(
            violations.iter().any(|v| v.contains("gen/draft")),
            "{violations:?}"
        );
    }
}
