//! Closed spans and critical-path extraction.
//!
//! The paper's performance argument is about *where the makespan comes
//! from*: parameter reallocation wins by shortening the chain of spans that
//! actually gates the end-to-end time, not by shaving concurrent work that
//! was hidden anyway. This module keeps a run's closed spans in a
//! [`SpanSet`] (recorded straight off the run, or replayed from an
//! [`EventStream`]) and walks the timeline backwards from the makespan, at
//! every point following the latest-finishing span that could have gated
//! it. The result tiles `[0, makespan]` exactly with *span* segments (some
//! recorded span was still running) and *wait* segments (nothing was
//! running anywhere — pure schedule gaps), so
//!
//! ```text
//! span_seconds + wait_seconds == makespan
//! ```
//!
//! holds by construction and the critical path can never exceed the
//! makespan. Aggregating span segments by `(name, category)` yields the
//! top-k table the `real profile` report prints.

use crate::events::{
    EventStream, LaneId, LaneIx, LaneNames, Recorder, StreamEvent, Sym, Symbols, Table,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Tolerance for float comparisons on the virtual clock.
pub const EPS: f64 = 1e-9;

/// A closed span: 32 bytes, no heap data. Its lane, name and category are
/// ids into the tables of the [`SpanSet`] holding it; resolve them with
/// [`SpanSet::lane`] and [`SpanSet::str`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Lane the span was recorded on.
    pub lane: LaneIx,
    /// Span name (e.g. `actor_gen#0`).
    pub name: Sym,
    /// Span category (e.g. `compute`, `call/gen`).
    pub category: Sym,
    /// Start time (virtual seconds).
    pub start: f64,
    /// End time (virtual seconds).
    pub end: f64,
    /// Nesting depth on its lane at begin time (0 = outermost).
    pub depth: u32,
}

const _: () = assert!(std::mem::size_of::<Span>() == 32);

impl Span {
    /// Wall duration of the span.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The closed spans of a run, in the order they closed, with the lane and
/// symbol tables their ids index and the names of their lanes.
///
/// A span set is a [`Recorder`]: a run recorded into it keeps only what a
/// profile reads. Begins and ends are matched on per-lane stacks, so an
/// end closes the innermost open span of its lane; spans left open,
/// instants, counters and flows are not kept.
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    spans: Vec<Span>,
    symbols: Symbols,
    lanes: Table<LaneId>,
    names: LaneNames,
    /// Stacks of open spans, indexed by [`LaneIx`]: (name, category, start).
    open: Vec<Vec<(Sym, Sym, f64)>>,
    flows: u64,
}

impl SpanSet {
    /// The closed spans, in the order they closed.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The string an id of this set stands for.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not interned by this set.
    pub fn str(&self, id: Sym) -> &str {
        self.symbols.str(id)
    }

    /// The lane an index of this set stands for.
    ///
    /// # Panics
    ///
    /// Panics when `ix` was not interned by this set.
    pub fn lane(&self, ix: LaneIx) -> LaneId {
        self.lanes.key(ix.0)
    }

    /// The name of process `pid`, if it was named.
    pub fn process_name(&self, pid: u32) -> Option<&str> {
        self.names.process(pid)
    }

    /// The name of `lane`'s thread, if it was named.
    pub fn thread_name(&self, lane: LaneId) -> Option<&str> {
        self.names.thread(lane)
    }

    fn open(&mut self, lane: LaneIx, name: Sym, category: Sym, ts: f64) {
        let ix = lane.0 as usize;
        if ix >= self.open.len() {
            self.open.resize_with(ix + 1, Vec::new);
        }
        self.open[ix].push((name, category, ts));
    }

    fn close(&mut self, lane: LaneIx, ts: f64) {
        let Some(stack) = self.open.get_mut(lane.0 as usize) else {
            return;
        };
        if let Some((name, category, start)) = stack.pop() {
            self.spans.push(Span {
                lane,
                name,
                category,
                start,
                end: ts,
                depth: stack.len() as u32,
            });
        }
    }
}

impl Recorder for SpanSet {
    fn set_lane_name(&mut self, lane: LaneId, process: &str, thread: &str) {
        self.names.set(lane, process, thread);
    }

    fn begin(&mut self, lane: LaneId, name: &str, category: &str, ts: f64) {
        let lane = LaneIx(self.lanes.intern(lane));
        let (name, category) = (self.symbols.intern(name), self.symbols.intern(category));
        self.open(lane, name, category, ts);
    }

    fn end(&mut self, lane: LaneId, ts: f64) {
        if let Some(ix) = self.lanes.get(&lane) {
            self.close(LaneIx(ix), ts);
        }
    }

    fn instant(&mut self, _: LaneId, _: &str, _: &str, _: f64) {}

    fn counter(&mut self, _: u32, _: &str, _: f64, _: f64) {}

    fn keeps_counters(&self) -> bool {
        false
    }

    fn flow_start(&mut self, _: u64, _: &str, _: LaneId, _: f64) {
        self.flows += 1;
    }

    fn flow_end(&mut self, _: u64, _: &str, _: LaneId, _: f64) {}

    fn flows(&self) -> u64 {
        self.flows
    }
}

/// Replays the stream's begin and end events into a [`SpanSet`] under
/// the stream's own symbol and lane ids and lane names: every *closed*
/// span, in record order of the `End` events. Spans left open and events
/// other than `Begin`/`End` are ignored.
pub fn reconstruct_spans(stream: &EventStream) -> SpanSet {
    let (symbols, lanes, names) = stream.tables();
    let mut set = SpanSet {
        symbols: symbols.clone(),
        lanes: lanes.clone(),
        names: names.clone(),
        open: vec![Vec::new(); lanes.len()],
        ..SpanSet::default()
    };
    for &event in stream.events() {
        match event {
            StreamEvent::Begin {
                lane,
                name,
                category,
                ts,
            } => set.open(lane, name, category, ts),
            StreamEvent::End { lane, ts } => set.close(lane, ts),
            _ => {}
        }
    }
    set
}

/// The makespan implied by a span set: the latest end time (0 when empty).
pub fn makespan(spans: &SpanSet) -> f64 {
    spans.spans.iter().fold(0.0, |m, s| m.max(s.end))
}

/// One segment of the critical path, in time order.
#[derive(Debug, Clone, PartialEq)]
pub struct CritSegment {
    /// Index into the span set, or `None` for a wait (schedule gap).
    pub span: Option<usize>,
    /// Segment start.
    pub start: f64,
    /// Segment end.
    pub end: f64,
}

impl CritSegment {
    /// Segment duration.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// The critical path of a run: segments tiling `[0, makespan]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The makespan the path was extracted against.
    pub makespan: f64,
    /// Segments in increasing time order; starts at 0, ends at makespan.
    pub segments: Vec<CritSegment>,
    /// Seconds covered by span segments.
    pub span_seconds: f64,
    /// Seconds covered by wait segments (no span running anywhere).
    pub wait_seconds: f64,
}

/// One aggregated critical-path entry: total gating seconds attributed to
/// spans sharing a `(name, category)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CritEntry {
    /// Span name.
    pub name: String,
    /// Span category.
    pub category: String,
    /// Seconds this entry spends on the critical path.
    pub seconds: f64,
    /// Number of path segments aggregated into this entry.
    pub count: u64,
}

impl CriticalPath {
    /// Extracts the critical path from a span set.
    ///
    /// Walking backwards from the makespan, the algorithm repeatedly picks
    /// the span covering the instant just before the current frontier
    /// (`start < t`, `end >= t`): the most recently started such span is
    /// the most specific work gating the frontier, so the path descends
    /// into leaf kernels instead of stopping at enclosing call spans. The
    /// segment `[span.start, t]` joins the path and the frontier jumps to
    /// the span's start. When nothing was running, the gap back to the
    /// nearest earlier span end becomes a wait segment. Ties are broken
    /// deterministically (latest start, then deepest nesting, then
    /// earliest end, then lane, then name), so the path is byte-stable
    /// across runs of the same trace.
    pub fn extract(set: &SpanSet, makespan: f64) -> Self {
        let spans = set.spans();
        // Candidate order: latest start first; the first covering span in
        // this order is the pick. Zero-duration spans never gate anything.
        // The index is the last tie-break, so the order is total and an
        // unstable sort is deterministic.
        let n = u32::try_from(spans.len()).expect("fewer than 2^32 spans");
        let mut order: Vec<u32> = Vec::with_capacity(spans.len());
        order.extend((0..n).filter(|&i| spans[i as usize].duration() > EPS));
        order.sort_unstable_by(|&i, &j| {
            let (a, b) = (&spans[i as usize], &spans[j as usize]);
            b.start
                .partial_cmp(&a.start)
                .expect("span times are finite")
                .then(b.depth.cmp(&a.depth))
                .then(a.end.partial_cmp(&b.end).expect("finite"))
                .then_with(|| set.lane(a.lane).cmp(&set.lane(b.lane)))
                .then_with(|| set.str(a.name).cmp(set.str(b.name)))
                .then(i.cmp(&j))
        });
        let span = |k: usize| &spans[order[k] as usize];
        // suffix_max_end[k] = max end over order[k..]; lets the scan stop
        // early when no remaining candidate can cover the frontier.
        let mut suffix_max_end = vec![f64::NEG_INFINITY; order.len() + 1];
        for k in (0..order.len()).rev() {
            suffix_max_end[k] = suffix_max_end[k + 1].max(span(k).end);
        }

        let mut segments: Vec<CritSegment> = Vec::new();
        let mut t = makespan;
        let mut cursor = 0; // first candidate with start < t - EPS
        while t > EPS {
            while cursor < order.len() && span(cursor).start >= t - EPS {
                cursor += 1;
            }
            let mut pick = None;
            let mut k = cursor;
            while k < order.len() && suffix_max_end[k] >= t - EPS {
                if span(k).end >= t - EPS {
                    pick = Some(order[k] as usize);
                    break;
                }
                k += 1;
            }
            match pick {
                Some(i) => {
                    let s = &spans[i];
                    segments.push(CritSegment {
                        span: Some(i),
                        start: s.start.max(0.0),
                        end: t,
                    });
                    t = s.start.max(0.0);
                }
                None => {
                    // Nothing was running: wait back to the latest span end
                    // strictly before the frontier (or to time zero). Every
                    // candidate from the cursor on ends before `t - EPS`,
                    // and every earlier one starts at or after `t - EPS`, so
                    // ends after `t`: that end is the suffix maximum.
                    let prev = suffix_max_end[cursor].max(0.0);
                    segments.push(CritSegment {
                        span: None,
                        start: prev,
                        end: t,
                    });
                    t = prev;
                }
            }
        }
        segments.reverse();
        let span_seconds = segments
            .iter()
            .filter(|g| g.span.is_some())
            .map(CritSegment::duration)
            .sum();
        let wait_seconds = segments
            .iter()
            .filter(|g| g.span.is_none())
            .map(CritSegment::duration)
            .sum();
        Self {
            makespan,
            segments,
            span_seconds,
            wait_seconds,
        }
    }

    /// Aggregates span segments by `(name, category)` and returns the `k`
    /// entries gating the most time, largest first (name-ordered on ties).
    pub fn top_spans(&self, spans: &SpanSet, k: usize) -> Vec<CritEntry> {
        let mut agg: BTreeMap<(&str, &str), (f64, u64)> = BTreeMap::new();
        for seg in &self.segments {
            if let Some(i) = seg.span {
                let s = &spans.spans[i];
                let e = agg
                    .entry((spans.str(s.name), spans.str(s.category)))
                    .or_insert((0.0, 0));
                e.0 += seg.duration();
                e.1 += 1;
            }
        }
        let mut entries: Vec<CritEntry> = agg
            .into_iter()
            .map(|((name, category), (seconds, count))| CritEntry {
                name: name.to_string(),
                category: category.to_string(),
                seconds,
                count,
            })
            .collect();
        entries.sort_by(|a, b| {
            b.seconds
                .partial_cmp(&a.seconds)
                .expect("finite")
                .then_with(|| a.name.cmp(&b.name))
                .then_with(|| a.category.cmp(&b.category))
        });
        entries.truncate(k);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set of depth-0 spans, each on its own `(lane, name, category,
    /// start, end)`.
    fn set_of(spans: &[(LaneId, &str, &str, f64, f64)]) -> SpanSet {
        let mut set = SpanSet::default();
        for &(lane, name, cat, start, end) in spans {
            set.span(lane, name, cat, start, end);
        }
        set
    }

    #[test]
    fn reconstruct_handles_nesting_and_open_spans() {
        let mut s = EventStream::with_capacity(0);
        let lane = LaneId::gpu(0, 0);
        s.begin(lane, "outer", "compute", 0.0);
        s.begin(lane, "inner", "tp-comm", 1.0);
        s.end(lane, 2.0);
        s.end(lane, 3.0);
        s.begin(lane, "dangling", "compute", 4.0); // left open: ignored
        let set = reconstruct_spans(&s);
        let spans = set.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(set.str(spans[0].name), "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(set.str(spans[1].name), "outer");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(makespan(&set), 3.0);
    }

    #[test]
    fn recording_matches_replaying_the_stream() {
        let mut stream = EventStream::with_capacity(0);
        let mut set = SpanSet::default();
        let (gpu, master) = (LaneId::gpu(0, 1), LaneId::master());
        for r in [&mut stream as &mut dyn Recorder, &mut set] {
            r.set_lane_name(gpu, "node0", "gpu1");
            r.begin(master, "gen#0", "call/gen", 0.0);
            r.span(gpu, "fwd", "compute", 0.5, 1.5);
            r.counter(0, "mem", 1.0, 2.0);
            r.instant(master, "mark", "fault", 1.0);
            r.span(master, "backoff#1", "backoff", 1.0, 2.0);
            r.end(master, 3.0);
            r.begin(gpu, "dangling", "compute", 4.0); // left open: not kept
        }
        let replayed = reconstruct_spans(&stream);
        let resolve = |set: &SpanSet| -> Vec<(LaneId, String, String, f64, f64, u32)> {
            set.spans()
                .iter()
                .map(|s| {
                    let (name, cat) = (set.str(s.name), set.str(s.category));
                    let lane = set.lane(s.lane);
                    (lane, name.into(), cat.into(), s.start, s.end, s.depth)
                })
                .collect()
        };
        assert_eq!(resolve(&set), resolve(&replayed));
        assert_eq!(set.spans().len(), 3);
        assert_eq!(set.thread_name(gpu), Some("gpu1"));
        assert_eq!(replayed.process_name(0), Some("node0"));
    }

    #[test]
    fn serial_chain_is_fully_on_path() {
        let l = LaneId::gpu(0, 0);
        let set = set_of(&[(l, "a", "compute", 0.0, 2.0), (l, "b", "compute", 2.0, 5.0)]);
        let cp = CriticalPath::extract(&set, 5.0);
        assert_eq!(cp.segments.len(), 2);
        assert!((cp.span_seconds - 5.0).abs() < 1e-9);
        assert!(cp.wait_seconds.abs() < 1e-9);
    }

    #[test]
    fn waits_fill_gaps_and_conserve_makespan() {
        let l = LaneId::gpu(0, 0);
        // Work in [1, 2] and [4, 6]; gaps [0,1] and [2,4] are waits.
        let set = set_of(&[(l, "a", "compute", 1.0, 2.0), (l, "b", "compute", 4.0, 6.0)]);
        let cp = CriticalPath::extract(&set, 6.0);
        assert!((cp.span_seconds - 3.0).abs() < 1e-9);
        assert!((cp.wait_seconds - 3.0).abs() < 1e-9);
        assert!((cp.span_seconds + cp.wait_seconds - 6.0).abs() < 1e-9);
        // Segments tile [0, makespan] in order.
        assert!((cp.segments[0].start).abs() < 1e-9);
        for w in cp.segments.windows(2) {
            assert!((w[0].end - w[1].start).abs() < 1e-9);
        }
        assert!((cp.segments.last().unwrap().end - 6.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_slack_stays_off_path() {
        // GPU 1's short span is hidden behind GPU 0's long one.
        let set = set_of(&[
            (LaneId::gpu(0, 0), "long", "compute", 0.0, 10.0),
            (LaneId::gpu(0, 1), "short", "compute", 2.0, 4.0),
        ]);
        let cp = CriticalPath::extract(&set, 10.0);
        let top = cp.top_spans(&set, 5);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].name, "long");
        assert!((top[0].seconds - 10.0).abs() < 1e-9);
    }

    #[test]
    fn prefers_deepest_span_on_equal_end() {
        // A leaf kernel inside an enclosing call, both ending at 4: the
        // path should name the leaf (more specific attribution).
        let l = LaneId::gpu(0, 0);
        let mut set = SpanSet::default();
        set.begin(l, "call", "call/gen", 0.0);
        set.span(l, "kernel", "compute", 3.0, 4.0);
        set.end(l, 4.0);
        let cp = CriticalPath::extract(&set, 4.0);
        let names: Vec<&str> = cp
            .segments
            .iter()
            .filter_map(|g| g.span.map(|i| set.str(set.spans()[i].name)))
            .collect();
        assert_eq!(names, vec!["call", "kernel"]);
    }

    #[test]
    fn ties_break_on_the_resolved_name() {
        // Equal spans on one lane whose ids order against their names:
        // `zeta` is interned first, so only the string order picks `alpha`.
        let l = LaneId::gpu(0, 0);
        let mut set = SpanSet::default();
        set.begin(l, "zeta", "compute", 0.0);
        set.end(l, 2.0);
        set.begin(l, "alpha", "compute", 0.0);
        set.end(l, 2.0);
        let cp = CriticalPath::extract(&set, 2.0);
        let first = cp.segments[0].span.expect("a span gates the path");
        assert_eq!(set.str(set.spans()[first].name), "alpha");
    }

    #[test]
    fn zero_duration_spans_cannot_stall_extraction() {
        let l = LaneId::gpu(0, 0);
        let set = set_of(&[
            (l, "tick", "compute", 5.0, 5.0),
            (l, "work", "compute", 0.0, 5.0),
        ]);
        let cp = CriticalPath::extract(&set, 5.0);
        assert!((cp.span_seconds - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stream_yields_empty_path() {
        let cp = CriticalPath::extract(&SpanSet::default(), 0.0);
        assert!(cp.segments.is_empty());
        assert_eq!(cp.span_seconds + cp.wait_seconds, 0.0);
    }
}
