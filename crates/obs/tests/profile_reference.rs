//! The profile pass against a reference: `CriticalPath::extract` and the
//! per-GPU views of `ProfileReport::from_spans` must equal, bit for bit, a
//! straightforward implementation kept here (a stable sort of 64-bit
//! indices and a sorted copy of every span end for the critical path; all
//! lanes' intervals grouped at once in a `BTreeMap` for the GPU views) on
//! seeded random span sets with equal times, zero-duration spans, nesting,
//! gaps, and lanes with and without names.

use real_obs::critpath::{makespan, CritSegment, EPS};
use real_obs::profile::{GpuStat, OverlapStats, PercentileSummary};
use real_obs::{CriticalPath, LaneId, ProfileReport, Recorder, SpanSet};
use real_util::DeterministicRng;
use std::collections::BTreeMap;

const CATEGORIES: [&str; 8] = [
    "compute", "launch", "tp-comm", "dp-comm", "realloc", "transfer", "call/gen", "other",
];
const SIM_CATEGORIES: [&str; 7] = [
    "compute", "launch", "tp-comm", "pp-comm", "dp-comm", "realloc", "transfer",
];
const COMPUTE_CATEGORIES: [&str; 2] = ["compute", "launch"];

/// A random span set: a few lanes, each moving its own clock in steps of
/// 0, 0.5, 1 or 2.5 seconds (so times tie across lanes and spans can have
/// zero duration or leave gaps), now and then a second back (so one lane
/// can repeat a span exactly), opening and closing nested spans with names
/// and categories from small sets.
fn random_set(seed: u64) -> SpanSet {
    let mut rng = DeterministicRng::from_seed(seed);
    let lanes: Vec<LaneId> = (0..1 + rng.index(4))
        .map(|_| LaneId::gpu(rng.index(2) as u32, rng.index(3) as u32))
        .collect();
    let mut set = SpanSet::default();
    for (k, &lane) in lanes.iter().enumerate() {
        if k % 2 == 0 {
            set.set_lane_name(
                lane,
                &format!("node{}", lane.pid),
                &format!("gpu{}", lane.tid),
            );
        }
    }
    let mut clocks = vec![0.0f64; lanes.len()];
    let mut stacks = vec![0usize; lanes.len()];
    for _ in 0..rng.index(60) {
        let l = rng.index(lanes.len());
        clocks[l] += [0.0, 0.0, 0.5, 1.0, 2.5, -1.0][rng.index(6)];
        let t = clocks[l];
        if stacks[l] > 0 && rng.index(2) == 0 {
            set.end(lanes[l], t);
            stacks[l] -= 1;
        } else {
            let name = ["a", "b", "c"][rng.index(3)];
            let category = CATEGORIES[rng.index(CATEGORIES.len())];
            set.begin(lanes[l], name, category, t);
            stacks[l] += 1;
        }
    }
    for (l, &lane) in lanes.iter().enumerate() {
        for _ in 0..stacks[l] {
            clocks[l] += 0.5;
            set.end(lane, clocks[l]);
        }
    }
    set
}

/// The critical path as a stable sort of every candidate and a binary
/// search of the sorted span ends across each gap.
fn reference_path(set: &SpanSet, makespan: f64) -> CriticalPath {
    let spans = set.spans();
    let mut order: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].duration() > EPS)
        .collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&spans[a], &spans[b]);
        b.start
            .partial_cmp(&a.start)
            .unwrap()
            .then(b.depth.cmp(&a.depth))
            .then(a.end.partial_cmp(&b.end).unwrap())
            .then(set.lane(a.lane).cmp(&set.lane(b.lane)))
            .then(set.str(a.name).cmp(set.str(b.name)))
    });
    let mut suffix_max_end = vec![f64::NEG_INFINITY; order.len() + 1];
    for i in (0..order.len()).rev() {
        suffix_max_end[i] = suffix_max_end[i + 1].max(spans[order[i]].end);
    }
    let mut ends: Vec<f64> = order.iter().map(|&i| spans[i].end).collect();
    ends.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());

    let mut segments = Vec::new();
    let mut t = makespan;
    let mut cursor = 0;
    while t > EPS {
        while cursor < order.len() && spans[order[cursor]].start >= t - EPS {
            cursor += 1;
        }
        let mut pick = None;
        let mut i = cursor;
        while i < order.len() && suffix_max_end[i] >= t - EPS {
            if spans[order[i]].end >= t - EPS {
                pick = Some(order[i]);
                break;
            }
            i += 1;
        }
        let start = match pick {
            Some(i) => spans[i].start.max(0.0),
            None => ends
                .partition_point(|&e| e < t - EPS)
                .checked_sub(1)
                .map_or(0.0, |j| ends[j].max(0.0)),
        };
        segments.push(CritSegment {
            span: pick,
            start,
            end: t,
        });
        t = start;
    }
    segments.reverse();
    let seconds = |spans: bool| {
        segments
            .iter()
            .filter(|g| g.span.is_some() == spans)
            .map(CritSegment::duration)
            .sum()
    };
    CriticalPath {
        makespan,
        span_seconds: seconds(true),
        wait_seconds: seconds(false),
        segments,
    }
}

fn merged(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap()
            .then(a.1.partial_cmp(&b.1).unwrap())
    });
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (a, b) in iv {
        if b <= a {
            continue;
        }
        match out.last_mut() {
            Some(last) if a <= last.1 + EPS => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

fn overlap_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    real_obs::profile::intersection_len(a, b)
}

/// The per-GPU views with every lane's intervals grouped at once.
fn reference_gpus(set: &SpanSet, makespan: f64) -> (Vec<GpuStat>, OverlapStats, PercentileSummary) {
    type Intervals = (Vec<(f64, f64)>, Vec<(f64, f64)>);
    let mut by_lane: BTreeMap<LaneId, Intervals> = BTreeMap::new();
    for s in set.spans() {
        let category = set.str(s.category);
        if !SIM_CATEGORIES.contains(&category) {
            continue;
        }
        let entry = by_lane.entry(set.lane(s.lane)).or_default();
        if COMPUTE_CATEGORIES.contains(&category) {
            entry.0.push((s.start, s.end));
        } else {
            entry.1.push((s.start, s.end));
        }
    }
    let mut gpus = Vec::new();
    let mut overlap = OverlapStats::default();
    let mut gap_samples = Vec::new();
    let len = |iv: &[(f64, f64)]| -> f64 { iv.iter().map(|(a, b)| b - a).sum() };
    for (lane, (compute, comm)) in by_lane {
        let compute = merged(compute);
        let comm = merged(comm);
        let busy = merged(compute.iter().chain(comm.iter()).copied().collect());
        let both = overlap_len(&compute, &comm);
        overlap.compute_only_seconds += len(&compute) - both;
        overlap.comm_only_seconds += len(&comm) - both;
        overlap.overlap_seconds += both;
        overlap.neither_seconds += makespan - len(&busy);
        let (mut gaps, mut longest, mut cursor) = (0u64, 0.0f64, 0.0);
        for &(a, b) in busy.iter().chain(std::iter::once(&(makespan, makespan))) {
            let gap = a.min(makespan) - cursor;
            if gap > EPS {
                gaps += 1;
                longest = longest.max(gap);
                gap_samples.push(gap);
            }
            cursor = cursor.max(b.min(makespan));
        }
        let busy_seconds = len(&busy);
        let process = set
            .process_name(lane.pid)
            .map_or_else(|| format!("pid{}", lane.pid), str::to_string);
        let thread = set
            .thread_name(lane)
            .map_or_else(|| format!("tid{}", lane.tid), str::to_string);
        gpus.push(GpuStat {
            lane: format!("{process}/{thread}"),
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
    let gaps = PercentileSummary::from_values("gpu-idle-gap-seconds", &gap_samples);
    (gpus, overlap, gaps)
}

#[test]
fn profile_pass_matches_the_reference_on_random_span_sets() {
    let (mut ties, mut repeats, mut zero, mut nested, mut waits) =
        (false, false, false, false, false);
    for seed in 0..400 {
        let set = random_set(seed);
        let spans = set.spans();
        zero |= spans.iter().any(|s| s.duration() == 0.0);
        nested |= spans.iter().any(|s| s.depth > 0);
        for (i, a) in spans.iter().enumerate() {
            for b in &spans[..i] {
                if a.start == b.start && a.end == b.end && a.depth == b.depth {
                    ties = true;
                    repeats |= a.lane == b.lane && a.name == b.name && a.duration() > EPS;
                }
            }
        }
        let makespan = makespan(&set);
        let path = CriticalPath::extract(&set, makespan);
        assert_eq!(path, reference_path(&set, makespan), "seed {seed}");
        waits |= path.wait_seconds > 0.0;

        let report = ProfileReport::from_spans(&set, 5);
        let (gpus, overlap, gaps) = reference_gpus(&set, makespan);
        assert_eq!(report.gpus, gpus, "seed {seed}");
        assert_eq!(report.overlap, overlap, "seed {seed}");
        assert_eq!(report.percentiles, vec![gaps], "seed {seed}");
    }
    assert!(
        ties && repeats && zero && nested && waits,
        "the generator covers every case"
    );
}
