//! Kernel-level trace recording (the data behind Fig. 10's simplified
//! kernel traces).

use crate::timeline::Category;

/// One recorded busy interval on one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global GPU index.
    pub gpu: usize,
    /// Interval start (seconds of virtual time).
    pub start: f64,
    /// Interval end.
    pub end: f64,
    /// Busy category.
    pub category: Category,
    /// Free-form label (e.g. `"layer_decode"`, `"tp_allreduce"`).
    pub label: &'static str,
}

/// A position in a [`Trace`], taken with [`Trace::checkpoint`] and restored
/// with [`Trace::rewind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheckpoint {
    len: usize,
    dropped: u64,
}

/// A bounded trace recorder. Recording is opt-in because full traces of a
/// long run are large; the runtime engine only enables it for the trace
/// figures.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A disabled trace that records nothing.
    pub fn disabled() -> Self {
        Self {
            events: Vec::new(),
            capacity: 0,
            dropped: 0,
        }
    }

    /// A trace recording up to `capacity` events; later events are counted
    /// but dropped.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Whether this trace records anything.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records an event (no-op when disabled or full).
    pub fn record(
        &mut self,
        gpu: usize,
        start: f64,
        end: f64,
        category: Category,
        label: &'static str,
    ) {
        if self.events.len() < self.capacity {
            self.events.push(TraceEvent {
                gpu,
                start,
                end,
                category,
                label,
            });
        } else if self.capacity > 0 {
            self.dropped += 1;
        }
    }

    /// Captures the current recording position so a speculative stretch of
    /// events can be discarded with [`Trace::rewind`].
    pub fn checkpoint(&self) -> TraceCheckpoint {
        TraceCheckpoint {
            len: self.events.len(),
            dropped: self.dropped,
        }
    }

    /// Discards every event recorded after `cp` was taken, restoring the
    /// drop counter too. Used by resilient dispatch to roll back the trace
    /// of an execution attempt aborted by a fault.
    ///
    /// # Panics
    ///
    /// Panics if `cp` is from a point *ahead* of the current state (i.e.
    /// the trace was already rewound past it).
    pub fn rewind(&mut self, cp: TraceCheckpoint) {
        assert!(
            cp.len <= self.events.len() && cp.dropped <= self.dropped,
            "checkpoint is ahead of the trace"
        );
        self.events.truncate(cp.len);
        self.dropped = cp.dropped;
    }

    /// The recorded events in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events dropped after the capacity filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events on one GPU, in record order.
    pub fn for_gpu(&self, gpu: usize) -> Vec<&TraceEvent> {
        self.events.iter().filter(|e| e.gpu == gpu).collect()
    }

    /// Renders an ASCII lane for one GPU over `[0, horizon]` with `width`
    /// character cells — the Fig. 10 visualization.
    pub fn render_lane(&self, gpu: usize, horizon: f64, width: usize) -> String {
        assert!(
            horizon > 0.0 && width > 0,
            "need a positive horizon and width"
        );
        let mut lane = vec!['.'; width];
        for e in self.events.iter().filter(|e| e.gpu == gpu) {
            let glyph = match e.category {
                Category::Compute => '#',
                Category::Launch => 'l',
                Category::TpComm => 'T',
                Category::PpComm => 'P',
                Category::DpComm => 'D',
                Category::Realloc => 'R',
                Category::Transfer => 'x',
            };
            let a = ((e.start / horizon) * width as f64).floor() as usize;
            let b = ((e.end / horizon) * width as f64).ceil() as usize;
            for cell in lane.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *cell = glyph;
            }
        }
        lane.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(0, 0.0, 1.0, Category::Compute, "k");
        assert!(t.events().is_empty());
        assert!(!t.enabled());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn capacity_bounds_recording() {
        let mut t = Trace::with_capacity(2);
        for i in 0..5 {
            t.record(0, i as f64, i as f64 + 1.0, Category::Compute, "k");
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn per_gpu_filtering() {
        let mut t = Trace::with_capacity(10);
        t.record(0, 0.0, 1.0, Category::Compute, "a");
        t.record(1, 0.0, 1.0, Category::TpComm, "b");
        t.record(0, 1.0, 2.0, Category::PpComm, "c");
        assert_eq!(t.for_gpu(0).len(), 2);
        assert_eq!(t.for_gpu(1).len(), 1);
        assert_eq!(t.for_gpu(2).len(), 0);
    }

    #[test]
    fn checkpoint_and_rewind_discard_speculative_events() {
        let mut t = Trace::with_capacity(2);
        t.record(0, 0.0, 1.0, Category::Compute, "keep");
        let cp = t.checkpoint();
        t.record(0, 1.0, 2.0, Category::Compute, "drop");
        t.record(0, 2.0, 3.0, Category::Compute, "over-capacity");
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 1);
        t.rewind(cp);
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.events()[0].label, "keep");
        assert_eq!(t.dropped(), 0);
        // Rewinding to the same point twice is a no-op.
        t.rewind(cp);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    #[should_panic(expected = "checkpoint is ahead")]
    fn rewinding_past_a_stale_checkpoint_panics() {
        let mut t = Trace::with_capacity(4);
        t.record(0, 0.0, 1.0, Category::Compute, "a");
        let cp = t.checkpoint();
        t.rewind(TraceCheckpoint { len: 0, dropped: 0 });
        t.rewind(cp);
    }

    #[test]
    fn lane_rendering_places_glyphs() {
        let mut t = Trace::with_capacity(10);
        t.record(0, 0.0, 0.5, Category::Compute, "k");
        t.record(0, 0.5, 1.0, Category::TpComm, "ar");
        let lane = t.render_lane(0, 1.0, 10);
        assert_eq!(lane.len(), 10);
        assert!(lane.starts_with("#####"));
        assert!(lane.ends_with("TTTTT"));
        // Empty lane elsewhere.
        assert_eq!(t.render_lane(3, 1.0, 4), "....");
    }

    #[test]
    #[should_panic(expected = "positive horizon")]
    fn lane_zero_horizon_panics() {
        Trace::with_capacity(1).render_lane(0, 0.0, 10);
    }
}
