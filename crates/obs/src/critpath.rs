//! Critical-path extraction from an [`EventStream`].
//!
//! The paper's performance argument is about *where the makespan comes
//! from*: parameter reallocation wins by shortening the chain of spans that
//! actually gates the end-to-end time, not by shaving concurrent work that
//! was hidden anyway. This module reconstructs closed spans from a stream
//! and walks the timeline backwards from the makespan, at every point
//! following the latest-finishing span that could have gated it. The result
//! tiles `[0, makespan]` exactly with *span* segments (some recorded span
//! was still running) and *wait* segments (nothing was running anywhere —
//! pure schedule gaps), so
//!
//! ```text
//! span_seconds + wait_seconds == makespan
//! ```
//!
//! holds by construction and the critical path can never exceed the
//! makespan. Aggregating span segments by `(name, category)` yields the
//! top-k table the `real profile` report prints.

use crate::events::{EventStream, LaneId, StreamEvent, Sym};
use serde::{Deserialize, Serialize};

/// Tolerance for float comparisons on the virtual clock.
pub const EPS: f64 = 1e-9;

/// A closed span reconstructed from a stream's begin/end events. Its name
/// and category borrow from the stream's symbol table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span<'s> {
    /// Lane the span was recorded on.
    pub lane: LaneId,
    /// Span name (e.g. `actor_gen#0`).
    pub name: &'s str,
    /// Span category (e.g. `compute`, `call/gen`).
    pub category: &'s str,
    /// Start time (virtual seconds).
    pub start: f64,
    /// End time (virtual seconds).
    pub end: f64,
    /// Nesting depth on its lane at begin time (0 = outermost).
    pub depth: u32,
}

impl Span<'_> {
    /// Wall duration of the span.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Reconstructs every *closed* span from the stream, in end order of the
/// per-lane stacks (record order of the `End` events). Spans left open and
/// events other than `Begin`/`End` are ignored.
pub fn reconstruct_spans(stream: &EventStream) -> Vec<Span<'_>> {
    let mut stacks: std::collections::BTreeMap<LaneId, Vec<(Sym, Sym, f64, u32)>> =
        std::collections::BTreeMap::new();
    let mut spans = Vec::new();
    for &event in stream.events() {
        match event {
            StreamEvent::Begin {
                lane,
                name,
                category,
                ts,
            } => {
                let stack = stacks.entry(lane).or_default();
                let depth = stack.len() as u32;
                stack.push((name, category, ts, depth));
            }
            StreamEvent::End { lane, ts } => {
                if let Some((name, category, start, depth)) =
                    stacks.get_mut(&lane).and_then(Vec::pop)
                {
                    spans.push(Span {
                        lane,
                        name: stream.str(name),
                        category: stream.str(category),
                        start,
                        end: ts,
                        depth,
                    });
                }
            }
            _ => {}
        }
    }
    spans
}

/// The makespan implied by a span set: the latest end time (0 when empty).
pub fn makespan(spans: &[Span]) -> f64 {
    spans.iter().fold(0.0, |m, s| m.max(s.end))
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
    pub fn extract(spans: &[Span], makespan: f64) -> Self {
        // Candidate order: latest start first; the first covering span in
        // this order is the pick. Zero-duration spans never gate anything.
        let mut order: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].duration() > EPS)
            .collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&spans[a], &spans[b]);
            b.start
                .partial_cmp(&a.start)
                .expect("span times are finite")
                .then(b.depth.cmp(&a.depth))
                .then(a.end.partial_cmp(&b.end).expect("finite"))
                .then(a.lane.cmp(&b.lane))
                .then(a.name.cmp(b.name))
        });
        // suffix_max_end[i] = max end over order[i..]; lets the scan stop
        // early when no remaining candidate can cover the frontier.
        let mut suffix_max_end = vec![f64::NEG_INFINITY; order.len() + 1];
        for i in (0..order.len()).rev() {
            suffix_max_end[i] = suffix_max_end[i + 1].max(spans[order[i]].end);
        }
        // Sorted span ends, for locating the previous activity across a gap.
        let mut ends: Vec<f64> = order.iter().map(|&i| spans[i].end).collect();
        ends.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

        let mut segments: Vec<CritSegment> = Vec::new();
        let mut t = makespan;
        let mut cursor = 0; // first candidate with start < t - EPS
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
                    // strictly before the frontier (or to time zero).
                    let prev = ends
                        .partition_point(|&e| e < t - EPS)
                        .checked_sub(1)
                        .map_or(0.0, |j| ends[j].max(0.0));
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
    pub fn top_spans(&self, spans: &[Span], k: usize) -> Vec<CritEntry> {
        let mut agg: std::collections::BTreeMap<(&str, &str), (f64, u64)> =
            std::collections::BTreeMap::new();
        for seg in &self.segments {
            if let Some(i) = seg.span {
                let s = &spans[i];
                let e = agg.entry((s.name, s.category)).or_insert((0.0, 0));
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

    fn span(
        lane: LaneId,
        name: &'static str,
        cat: &'static str,
        start: f64,
        end: f64,
        depth: u32,
    ) -> Span<'static> {
        Span {
            lane,
            name,
            category: cat,
            start,
            end,
            depth,
        }
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
        let spans = reconstruct_spans(&s);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(makespan(&spans), 3.0);
    }

    #[test]
    fn serial_chain_is_fully_on_path() {
        let l = LaneId::gpu(0, 0);
        let spans = vec![
            span(l, "a", "compute", 0.0, 2.0, 0),
            span(l, "b", "compute", 2.0, 5.0, 0),
        ];
        let cp = CriticalPath::extract(&spans, 5.0);
        assert_eq!(cp.segments.len(), 2);
        assert!((cp.span_seconds - 5.0).abs() < 1e-9);
        assert!(cp.wait_seconds.abs() < 1e-9);
    }

    #[test]
    fn waits_fill_gaps_and_conserve_makespan() {
        let l = LaneId::gpu(0, 0);
        // Work in [1, 2] and [4, 6]; gaps [0,1] and [2,4] are waits.
        let spans = vec![
            span(l, "a", "compute", 1.0, 2.0, 0),
            span(l, "b", "compute", 4.0, 6.0, 0),
        ];
        let cp = CriticalPath::extract(&spans, 6.0);
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
        let spans = vec![
            span(LaneId::gpu(0, 0), "long", "compute", 0.0, 10.0, 0),
            span(LaneId::gpu(0, 1), "short", "compute", 2.0, 4.0, 0),
        ];
        let cp = CriticalPath::extract(&spans, 10.0);
        let top = cp.top_spans(&spans, 5);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].name, "long");
        assert!((top[0].seconds - 10.0).abs() < 1e-9);
    }

    #[test]
    fn prefers_deepest_span_on_equal_end() {
        // A leaf kernel inside an enclosing call, both ending at 4: the
        // path should name the leaf (more specific attribution).
        let l = LaneId::gpu(0, 0);
        let spans = vec![
            span(l, "call", "call/gen", 0.0, 4.0, 0),
            span(l, "kernel", "compute", 3.0, 4.0, 1),
        ];
        let cp = CriticalPath::extract(&spans, 4.0);
        let names: Vec<&str> = cp
            .segments
            .iter()
            .filter_map(|g| g.span.map(|i| spans[i].name))
            .collect();
        assert_eq!(names, vec!["call", "kernel"]);
    }

    #[test]
    fn zero_duration_spans_cannot_stall_extraction() {
        let l = LaneId::gpu(0, 0);
        let spans = vec![
            span(l, "tick", "compute", 5.0, 5.0, 0),
            span(l, "work", "compute", 0.0, 5.0, 0),
        ];
        let cp = CriticalPath::extract(&spans, 5.0);
        assert!((cp.span_seconds - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stream_yields_empty_path() {
        let cp = CriticalPath::extract(&[], 0.0);
        assert!(cp.segments.is_empty());
        assert_eq!(cp.span_seconds + cp.wait_seconds, 0.0);
    }
}
